package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/node"
)

// ParsePolicy resolves a protocol name to its EOF policy. It accepts
// exactly can, standard, minorcan, majorcan (the default m) and
// majorcan_<m> with m a plain decimal, case-insensitive and ignoring
// surrounding space — the names the policies' Name() methods produce,
// so serialised specs round-trip — and rejects anything else, so a
// misspelt name can never alias a policy under another job digest. It
// is the single protocol-name codec shared by the chaos engine, the
// job-spec layer and every CLI.
func ParsePolicy(name string) (node.EOFPolicy, error) {
	s := strings.ToLower(strings.TrimSpace(name))
	switch {
	case s == "can" || s == "standard":
		return NewStandard(), nil
	case s == "minorcan":
		return NewMinorCAN(), nil
	case s == "majorcan":
		return NewMajorCAN(DefaultM)
	case strings.HasPrefix(s, "majorcan_"):
		digits := s[len("majorcan_"):]
		m, err := strconv.Atoi(digits)
		if err != nil || strconv.Itoa(m) != digits { // no sign, no leading zeros
			return nil, fmt.Errorf("core: invalid m in protocol %q", name)
		}
		return NewMajorCAN(m)
	default:
		return nil, fmt.Errorf("core: unknown protocol %q (use can, minorcan, majorcan_<m>)", name)
	}
}
