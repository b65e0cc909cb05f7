package database

// Row is a tuple of interned constant IDs — the storage engine's native
// tuple representation. Rows are compared by value; the IDs refer to
// the shared interner.
type Row []uint32

// AppendInterned appends t's interned IDs to dst and returns it;
// use with dst[:0] to reuse a scratch row across inserts.
func AppendInterned(dst Row, t Tuple) Row {
	for _, c := range t {
		dst = append(dst, Intern(c))
	}
	return dst
}

// Tuple resolves the row back to constant strings.
func (r Row) Tuple() Tuple {
	t := make(Tuple, len(r))
	for i, id := range r {
		t[i] = Symbol(id)
	}
	return t
}

// Equal reports whether two rows are identical.
func (r Row) Equal(s Row) bool {
	if len(r) != len(s) {
		return false
	}
	for i := range r {
		if r[i] != s[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// hashRow is FNV-1a over the row's IDs, byte by byte. It is the single
// hash function for slab dedup and index keys.
func hashRow(r Row) uint64 {
	h := hashSeed
	for _, id := range r {
		h = hashID(h, id)
	}
	return h
}

// hashSeed is the FNV-1a offset basis hashRow starts from.
const hashSeed = uint64(14695981039346656037)

// hashID folds one ID into an FNV-1a hash, byte by byte.
func hashID(h uint64, id uint32) uint64 {
	h = (h ^ uint64(id&0xff)) * 1099511628211
	h = (h ^ uint64((id>>8)&0xff)) * 1099511628211
	h = (h ^ uint64((id>>16)&0xff)) * 1099511628211
	return (h ^ uint64(id>>24)) * 1099511628211
}
