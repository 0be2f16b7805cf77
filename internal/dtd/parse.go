package dtd

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/contentmodel"
)

// Parse parses DTD surface syntax:
//
//	<!ELEMENT name content>
//	<!ATTLIST name attr1 CDATA #REQUIRED attr2 CDATA #REQUIRED ...>
//	<!-- comments -->
//
// Content is either EMPTY, ANY is not supported (the paper's grammar
// has no ANY), or a parenthesized content-model expression. Attribute
// types and defaults other than "CDATA #REQUIRED" are accepted and
// ignored: in the paper's model every τ element carries exactly the
// attributes R(τ), which matches #REQUIRED semantics.
//
// The element type of the root is the first declared element, matching
// the convention that a DTD is written top-down; use ParseWithRoot to
// override.
func Parse(src string) (*DTD, error) {
	return ParseWithRoot(src, "")
}

// ParseWithRoot is Parse with an explicit root element type; an empty
// root means "first declared element".
//
// Each attribute definition of an ATTLIST is read per XML's AttDef
// rule, as a name, a type and a default, except that the type and the
// default may be left out. A type is a keyword (CDATA, ID, IDREF,
// IDREFS, ENTITY, ENTITIES, NMTOKEN, NMTOKENS), an enumeration
// "(a|b)", or NOTATION and an enumeration; a default is a '#' keyword,
// a quoted literal, or #FIXED and a quoted literal. Literals may hold
// spaces and '>'.
func ParseWithRoot(src, root string) (*DTD, error) {
	n := strings.Count(src, "<!ELEMENT")
	d := &DTD{Names: make([]string, 0, n), Elements: make(map[string]*Element, n)}
	// The declarations are cut from one slab; any beyond the count above
	// are allocated on their own.
	elems := make([]Element, 0, n)
	var (
		// names holds every ATTLIST's attribute names in source order;
		// elements and pending lists take sub-slices of it.
		names []string
		// pending lists ATTLISTs whose element is not declared yet.
		pending []attlist
		models  contentmodel.Parser
	)
	rest := src
	for {
		rest = skipXMLSpaceAndComments(rest)
		if rest == "" {
			break
		}
		if !strings.HasPrefix(rest, "<!") {
			return nil, fmt.Errorf("dtd: expected declaration, found %q", truncate(rest))
		}
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			return nil, fmt.Errorf("dtd: unterminated declaration %q", truncate(rest))
		}
		decl := rest[2:end]
		kw, kwEnd := keyword(decl)
		switch kw {
		case "":
			return nil, fmt.Errorf("dtd: empty declaration")
		case "ELEMENT":
			rest = rest[end+1:]
			body := strings.TrimSpace(strings.TrimPrefix(decl, "ELEMENT"))
			sp := 0
			for sp < len(body) && body[sp] != ' ' && body[sp] != '\t' && body[sp] != '\r' && body[sp] != '\n' && body[sp] != '(' {
				sp++
			}
			if sp == len(body) {
				return nil, fmt.Errorf("dtd: malformed <!ELEMENT %s>", body)
			}
			name := strings.TrimSpace(body[:sp])
			cm := strings.TrimSpace(body[sp:])
			if name == "" || cm == "" {
				return nil, fmt.Errorf("dtd: malformed <!ELEMENT %s>", body)
			}
			expr, err := models.Parse(cm)
			if err != nil {
				return nil, fmt.Errorf("dtd: element %q: %w", name, err)
			}
			if _, dup := d.Elements[name]; dup {
				return nil, fmt.Errorf("dtd: duplicate <!ELEMENT %s>", name)
			}
			var e *Element
			if len(elems) < cap(elems) {
				elems = append(elems, Element{Name: name, Content: expr})
				e = &elems[len(elems)-1]
			} else {
				e = &Element{Name: name, Content: expr}
			}
			d.Elements[name] = e
			d.Names = append(d.Names, name)
		case "ATTLIST":
			from := len(names)
			sc := attlistScanner{src: rest, pos: 2 + kwEnd}
			elem, err := sc.scan(&names)
			if err != nil {
				return nil, err
			}
			if elem == "" {
				return nil, fmt.Errorf("dtd: malformed <!ATTLIST %s>", decl)
			}
			rest = sc.src[sc.pos:]
			if len(names) == from {
				continue
			}
			if e := d.Elements[elem]; e != nil {
				e.addAttrs(names[from:len(names):len(names)])
			} else {
				pending = append(pending, attlist{elem: elem, from: from, to: len(names)})
			}
		default:
			return nil, fmt.Errorf("dtd: unsupported declaration <!%s ...>", kw)
		}
	}
	if len(d.Names) == 0 {
		return nil, fmt.Errorf("dtd: no element declarations")
	}
	d.Root = root
	if root == "" {
		d.Root = d.Names[0]
	}
	for _, a := range pending {
		e := d.Elements[a.elem]
		if e == nil {
			return nil, fmt.Errorf("dtd: <!ATTLIST %s> for undeclared element", a.elem)
		}
		e.addAttrs(names[a.from:a.to:a.to])
	}
	for _, e := range d.Elements {
		if len(e.Attrs) > 1 {
			sort.Strings(e.Attrs)
			e.Attrs = dedupSorted(e.Attrs)
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// addAttrs adds attribute names to an element being parsed. The first
// list is taken as is; later lists are appended to a copy.
func (e *Element) addAttrs(names []string) {
	if e.Attrs == nil {
		e.Attrs = names
		return
	}
	e.Attrs = append(e.Attrs, names...)
}

// attlist is an ATTLIST whose element was not yet declared: its
// attribute names are names[from:to].
type attlist struct {
	elem     string
	from, to int
}

// keyword returns the first whitespace-separated word of a declaration
// and the offset just past it.
func keyword(decl string) (string, int) {
	start := 0
	for start < len(decl) {
		if c := decl[start]; c < utf8.RuneSelf {
			if !isASCIISpace(c) {
				break
			}
			start++
			continue
		}
		sp, n := spaceAt(decl, start)
		if !sp {
			break
		}
		start += n
	}
	end := start
	for end < len(decl) {
		if c := decl[end]; c < utf8.RuneSelf {
			if isASCIISpace(c) {
				break
			}
			end++
			continue
		}
		sp, n := spaceAt(decl, end)
		if sp {
			break
		}
		end += n
	}
	return decl[start:end], end
}

// spaceAt reports whether the rune at s[i] is white space (as
// unicode.IsSpace, the separator strings.Fields splits on) and its
// width in bytes.
func spaceAt(s string, i int) (bool, int) {
	if c := s[i]; c < utf8.RuneSelf {
		return isASCIISpace(c), 1
	}
	r, n := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(r), n
}

// isASCIISpace is unicode.IsSpace restricted to ASCII.
func isASCIISpace(c byte) bool { return c == ' ' || '\t' <= c && c <= '\r' }

// attlistScanner reads one ATTLIST declaration, from pos just past the
// ATTLIST keyword of the declaration that starts src through its
// closing '>'.
type attlistScanner struct {
	src string
	pos int
}

// scan reads the element name and appends each defined attribute's name
// to names. It returns "" as the element name when the declaration
// names no element, and leaves pos just past the closing '>'.
func (sc *attlistScanner) scan(names *[]string) (elem string, err error) {
	sc.skipSpace()
	if elem = sc.word(); elem == "" {
		return "", nil
	}
	for {
		sc.skipSpace()
		if sc.pos >= len(sc.src) {
			return "", sc.unterminated()
		}
		if sc.src[sc.pos] == '>' {
			sc.pos++
			return elem, nil
		}
		*names = append(*names, sc.word())
		sc.skipSpace()
		if sc.peek() == '(' {
			err = sc.enumeration(elem)
		} else if typ := sc.peekWord(); isAttrType(typ) {
			sc.pos += len(typ)
			if typ == "NOTATION" {
				sc.skipSpace()
				err = sc.enumeration(elem)
			}
		}
		if err != nil {
			return "", err
		}
		sc.skipSpace()
		switch sc.peek() {
		case '#':
			if sc.word() == "#FIXED" {
				sc.skipSpace()
				err = sc.literal()
			}
		case '"', '\'':
			err = sc.literal()
		}
		if err != nil {
			return "", err
		}
	}
}

// peek returns the next byte, or 0 at the end of the source.
func (sc *attlistScanner) peek() byte {
	if sc.pos < len(sc.src) {
		return sc.src[sc.pos]
	}
	return 0
}

func (sc *attlistScanner) skipSpace() {
	for sc.pos < len(sc.src) {
		if c := sc.src[sc.pos]; c < utf8.RuneSelf {
			if !isASCIISpace(c) {
				return
			}
			sc.pos++
			continue
		}
		sp, n := spaceAt(sc.src, sc.pos)
		if !sp {
			return
		}
		sc.pos += n
	}
}

// peekWord returns the run of bytes up to the next space or '>'.
func (sc *attlistScanner) peekWord() string {
	end := sc.pos
	for end < len(sc.src) && sc.src[end] != '>' {
		if c := sc.src[end]; c < utf8.RuneSelf {
			if isASCIISpace(c) {
				break
			}
			end++
			continue
		}
		sp, n := spaceAt(sc.src, end)
		if sp {
			break
		}
		end += n
	}
	return sc.src[sc.pos:end]
}

// word consumes and returns peekWord.
func (sc *attlistScanner) word() string {
	w := sc.peekWord()
	sc.pos += len(w)
	return w
}

// enumeration consumes a parenthesized "(a|b|...)" list, if one starts
// here; its names cannot hold '>'.
func (sc *attlistScanner) enumeration(elem string) error {
	if sc.peek() != '(' {
		return nil
	}
	n := strings.IndexAny(sc.src[sc.pos:], ")>")
	if n < 0 || sc.src[sc.pos+n] == '>' {
		return fmt.Errorf("dtd: <!ATTLIST %s>: unterminated enumeration %q", elem, truncate(sc.src[sc.pos:]))
	}
	sc.pos += n + 1
	return nil
}

// literal consumes a quoted literal, if one starts here.
func (sc *attlistScanner) literal() error {
	q := sc.peek()
	if q != '"' && q != '\'' {
		return nil
	}
	n := strings.IndexByte(sc.src[sc.pos+1:], q)
	if n < 0 {
		return sc.unterminated()
	}
	sc.pos += n + 2
	return nil
}

func (sc *attlistScanner) unterminated() error {
	return fmt.Errorf("dtd: unterminated declaration %q", truncate(sc.src))
}

// MustParse is Parse for known-good literals; it panics on error.
func MustParse(src string) *DTD {
	d, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("dtd.MustParse: %v", err))
	}
	return d
}

func isAttrType(tok string) bool {
	switch tok {
	case "CDATA", "ID", "IDREF", "IDREFS", "NMTOKEN", "NMTOKENS", "ENTITY", "ENTITIES", "NOTATION":
		return true
	}
	return false
}

func skipXMLSpaceAndComments(s string) string {
	for {
		i := 0
		for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n') {
			i++
		}
		s = s[i:]
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

func truncate(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return s
}

// String renders the DTD back in surface syntax, one declaration per
// line, elements in definition order with the root first.
func (d *DTD) String() string {
	var b strings.Builder
	names := d.Names
	if len(names) > 0 && names[0] != d.Root {
		// Definition order may introduce the root late (builders often
		// define leaves first); Parse infers the root from the first
		// declaration, so emit it first to keep String ∘ Parse a
		// roundtrip.
		names = []string{d.Root}
		for _, n := range d.Names {
			if n != d.Root {
				names = append(names, n)
			}
		}
	}
	for _, name := range names {
		e := d.Elements[name]
		cm := e.Content.String()
		if e.Content.Kind != contentmodel.Empty {
			cm = "(" + cm + ")"
		}
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", name, cm)
		if len(e.Attrs) > 0 {
			as := append([]string(nil), e.Attrs...)
			sort.Strings(as)
			fmt.Fprintf(&b, "<!ATTLIST %s", name)
			for _, a := range as {
				fmt.Fprintf(&b, " %s CDATA #REQUIRED", a)
			}
			b.WriteString(">\n")
		}
	}
	return b.String()
}
