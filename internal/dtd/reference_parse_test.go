package dtd

// The DTD parser that ParseWithRoot replaced, kept verbatim (renamed)
// as the reference oracle of the differential tests in parse_test.go.
// Its ATTLIST handling is the one known difference: it tokenizes on
// whitespace, so quoted defaults, enumerated types and #FIXED values
// leak into the attribute list.

import (
	"fmt"
	"strings"

	"repro/internal/contentmodel"
)

// refParseWithRoot parses DTD surface syntax with an explicit root
// element type; an empty root means "first declared element". It splits
// each declaration at its first '>' and each ATTLIST on whitespace.
func refParseWithRoot(src, root string) (*DTD, error) {
	type attlist struct {
		elem  string
		attrs []string
	}
	var (
		order    []string
		contents = map[string]*contentmodel.Expr{}
		attrs    = map[string][]string{}
	)
	rest := src
	for {
		rest = refSkipXMLSpaceAndComments(rest)
		if rest == "" {
			break
		}
		if !strings.HasPrefix(rest, "<!") {
			return nil, fmt.Errorf("dtd: expected declaration, found %q", refTruncate(rest))
		}
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			return nil, fmt.Errorf("dtd: unterminated declaration %q", refTruncate(rest))
		}
		decl := rest[2:end]
		rest = rest[end+1:]
		fields := strings.Fields(decl)
		if len(fields) == 0 {
			return nil, fmt.Errorf("dtd: empty declaration")
		}
		switch fields[0] {
		case "ELEMENT":
			body := strings.TrimSpace(strings.TrimPrefix(decl, "ELEMENT"))
			sp := strings.IndexAny(body, " \t\r\n(")
			if sp < 0 {
				return nil, fmt.Errorf("dtd: malformed <!ELEMENT %s>", body)
			}
			name := strings.TrimSpace(body[:sp])
			cm := strings.TrimSpace(body[sp:])
			if name == "" || cm == "" {
				return nil, fmt.Errorf("dtd: malformed <!ELEMENT %s>", body)
			}
			expr, err := contentmodel.Parse(cm)
			if err != nil {
				return nil, fmt.Errorf("dtd: element %q: %w", name, err)
			}
			if _, dup := contents[name]; dup {
				return nil, fmt.Errorf("dtd: duplicate <!ELEMENT %s>", name)
			}
			contents[name] = expr
			order = append(order, name)
		case "ATTLIST":
			if len(fields) < 2 {
				return nil, fmt.Errorf("dtd: malformed <!ATTLIST %s>", decl)
			}
			elem := fields[1]
			// Remaining fields come in (name, type, default) triples;
			// we record the names and ignore type/default tokens.
			toks := fields[2:]
			for i := 0; i < len(toks); {
				attrs[elem] = append(attrs[elem], toks[i])
				i++
				// Skip a type token and a default token when present.
				for _, expect := range []func(string) bool{refIsAttrType, refIsAttrDefault} {
					if i < len(toks) && expect(toks[i]) {
						i++
					}
				}
			}
		default:
			return nil, fmt.Errorf("dtd: unsupported declaration <!%s ...>", fields[0])
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("dtd: no element declarations")
	}
	if root == "" {
		root = order[0]
	}
	d := New(root)
	for _, name := range order {
		d.Define(name, contents[name], attrs[name]...)
	}
	for elem := range attrs {
		if _, ok := contents[elem]; !ok {
			return nil, fmt.Errorf("dtd: <!ATTLIST %s> for undeclared element", elem)
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func refIsAttrType(tok string) bool {
	switch tok {
	case "CDATA", "ID", "IDREF", "IDREFS", "NMTOKEN", "NMTOKENS", "ENTITY", "ENTITIES":
		return true
	}
	return false
}

func refIsAttrDefault(tok string) bool {
	return strings.HasPrefix(tok, "#") || strings.HasPrefix(tok, "\"") || strings.HasPrefix(tok, "'")
}

func refSkipXMLSpaceAndComments(s string) string {
	for {
		s = strings.TrimLeft(s, " \t\r\n")
		if strings.HasPrefix(s, "<!--") {
			end := strings.Index(s, "-->")
			if end < 0 {
				return ""
			}
			s = s[end+3:]
			continue
		}
		return s
	}
}

func refTruncate(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}
