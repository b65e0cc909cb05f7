// Package analyze is the static-analysis front end for Datalog
// programs: a multi-pass framework over ast.Program producing
// structured, positioned diagnostics.
//
// Each diagnostic carries a stable code (DL0001, DL0002, ...), a
// severity, a message, and the source position recorded by the parser
// (internal/parser threads lexer line/col into ast.Rule and ast.Atom).
// The passes reuse the repository's decision machinery instead of
// re-deriving it: the dependence graph and SCCs of ast.Program (§2.1),
// containment mappings from internal/cq (Theorem 2.2), and the bounded
// rewriting search of internal/core.
//
// The framework is the shared front door for the datalog CLI ("datalog
// check"), the REPL (":check", warnings on load), and any embedding
// that wants to vet untrusted programs before evaluation.
package analyze

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Severity ranks diagnostics. Errors make the program unfit to
// evaluate; warnings flag likely mistakes or pathological shapes that
// still evaluate; infos report properties (e.g. the §2.1 recursion
// classification) that drive procedure selection.
type Severity int

const (
	Info Severity = iota
	Warning
	Error
)

// String renders the severity in lower case ("info", "warning",
// "error").
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	default:
		return "info"
	}
}

// MarshalJSON renders the severity as its string form.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON parses a severity from its string form.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	switch str {
	case "error":
		*s = Error
	case "warning":
		*s = Warning
	case "info":
		*s = Info
	default:
		return fmt.Errorf("analyze: unknown severity %q", str)
	}
	return nil
}

// Diagnostic is one finding of the analyzer.
type Diagnostic struct {
	// Code is the stable identifier of the check, e.g. "DL0002".
	Code string `json:"code"`
	// Severity is Error, Warning, or Info.
	Severity Severity `json:"severity"`
	// Line and Col are the 1-based source position, or 0 when the
	// program was built programmatically and carries no positions.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message is the human-readable finding.
	Message string `json:"message"`
}

// String renders the diagnostic in the conventional
// "line:col: severity code: message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%d:%d: %s %s: %s", d.Line, d.Col, d.Severity, d.Code, d.Message)
}

// sortDiagnostics orders diagnostics by position, then code, then
// message, so output is deterministic regardless of pass order.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
}
