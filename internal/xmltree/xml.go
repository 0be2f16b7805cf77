package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ParseDocument parses an XML document into a Tree using the stdlib
// tokenizer (encoding/xml has no DTD processing; validation against a
// DTD is a separate Conforms call, which is the paper's model anyway).
// Whitespace-only character data between elements is dropped; other
// character data becomes text nodes.
func ParseDocument(r io.Reader) (*Tree, error) {
	dec := xml.NewDecoder(r)
	var (
		root  *Node
		stack []*Node
	)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := NewElement(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				n.SetAttr(a.Name.Local, a.Value)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].Append(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			// Surrounding whitespace is layout, not data, in this
			// model; values compare symbolically.
			text := strings.TrimSpace(string(t))
			if text == "" {
				continue
			}
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: character data outside the root element")
			}
			stack[len(stack)-1].Append(NewText(text))
		case xml.Comment, xml.ProcInst, xml.Directive:
			// The paper's model has no comments, PIs or references.
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unclosed element %s", stack[len(stack)-1].Label)
	}
	return &Tree{Root: root}, nil
}

// ParseDocumentString is ParseDocument over a string.
func ParseDocumentString(s string) (*Tree, error) {
	return ParseDocument(strings.NewReader(s))
}

// MustParseDocument parses a known-good document literal, panicking on
// error.
func MustParseDocument(s string) *Tree {
	t, err := ParseDocumentString(s)
	if err != nil {
		panic(fmt.Sprintf("xmltree.MustParseDocument: %v", err))
	}
	return t
}

// WriteXML serializes the tree as an XML document with two-space
// indentation. Attributes are written in sorted name order so output
// is deterministic.
func (t *Tree) WriteXML(w io.Writer) error {
	if t.Root == nil {
		return fmt.Errorf("xmltree: empty tree")
	}
	_, err := w.Write(t.appendXML())
	return err
}

// XML returns the serialized document as a string ("" for an empty
// tree).
func (t *Tree) XML() string {
	if t.Root == nil {
		return ""
	}
	return string(t.appendXML())
}

// appendXML renders the whole document into one buffer.
func (t *Tree) appendXML() []byte {
	x := xmlWriter{buf: make([]byte, 0, 512)}
	x.node(t.Root, 0)
	return x.buf
}

// xmlWriter renders a tree into buf. names, raw and esc are scratch
// space, reused across nodes: one element's sorted attribute names, and
// one attribute value or text's bytes and escaped form.
type xmlWriter struct {
	buf   []byte
	names []string
	raw   []byte
	esc   escBuf
}

// escape leaves s, escaped as xml.EscapeText escapes it, in x.esc.
func (x *xmlWriter) escape(s string) {
	x.raw = append(x.raw[:0], s...)
	x.esc = x.esc[:0]
	_ = xml.EscapeText(&x.esc, x.raw)
}

func (x *xmlWriter) indent(depth int) {
	for i := 0; i < depth; i++ {
		x.buf = append(x.buf, "  "...)
	}
}

func (x *xmlWriter) node(n *Node, depth int) {
	x.indent(depth)
	if n.IsText {
		x.escape(n.Text)
		x.buf = append(x.buf, x.esc...)
		x.buf = append(x.buf, '\n')
		return
	}
	x.buf = append(x.buf, '<')
	x.buf = append(x.buf, n.Label...)
	names := x.names[:0]
	for name := range n.Attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	x.names = names
	for _, name := range names {
		x.buf = append(x.buf, ' ')
		x.buf = append(x.buf, name...)
		x.buf = append(x.buf, '=')
		v := n.Attrs[name]
		if x.escape(v); string(x.esc) != v {
			v = string(x.esc)
		}
		x.buf = strconv.AppendQuote(x.buf, v)
	}
	if len(n.Children) == 0 {
		x.buf = append(x.buf, "/>\n"...)
		return
	}
	x.buf = append(x.buf, ">\n"...)
	prevText := false
	for _, k := range n.Children {
		// Adjacent text nodes would merge into one on re-parsing; a
		// separator comment keeps the node structure faithful (parsers
		// drop the comment but split the character data around it).
		if prevText && k.IsText {
			x.indent(depth)
			x.buf = append(x.buf, "  <!-- -->\n"...)
		}
		prevText = k.IsText
		x.node(k, depth+1)
	}
	x.indent(depth)
	x.buf = append(x.buf, "</"...)
	x.buf = append(x.buf, n.Label...)
	x.buf = append(x.buf, ">\n"...)
}

// escBuf collects xml.EscapeText's output by appending.
type escBuf []byte

func (b *escBuf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}
