package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/dtd"
)

// referenceXML is the fmt-based serializer WriteXML replaced, kept as
// the oracle the append-based writer must match byte for byte.
func referenceXML(t *Tree) string {
	var b strings.Builder
	if err := referenceNode(&b, t.Root, 0); err != nil {
		panic(err)
	}
	return b.String()
}

func referenceNode(w io.Writer, n *Node, depth int) error {
	indent := strings.Repeat("  ", depth)
	if n.IsText {
		_, err := fmt.Fprintf(w, "%s%s\n", indent, referenceEscape(n.Text))
		return err
	}
	if _, err := fmt.Fprintf(w, "%s<%s", indent, n.Label); err != nil {
		return err
	}
	names := make([]string, 0, len(n.Attrs))
	for name := range n.Attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, " %s=%q", name, referenceEscape(n.Attrs[name])); err != nil {
			return err
		}
	}
	if len(n.Children) == 0 {
		_, err := fmt.Fprintf(w, "/>\n")
		return err
	}
	if _, err := fmt.Fprintf(w, ">\n"); err != nil {
		return err
	}
	prevText := false
	for _, k := range n.Children {
		if prevText && k.IsText {
			if _, err := fmt.Fprintf(w, "%s  <!-- -->\n", indent); err != nil {
				return err
			}
		}
		prevText = k.IsText
		if err := referenceNode(w, k, depth+1); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>\n", indent, n.Label)
	return err
}

func referenceEscape(s string) string {
	var b strings.Builder
	_ = xml.EscapeText(&b, []byte(s))
	return b.String()
}

// matchReference fails the test unless XML and WriteXML both render
// tree exactly as the reference serializer does.
func matchReference(t *testing.T, name string, tree *Tree) {
	t.Helper()
	want := referenceXML(tree)
	if got := tree.XML(); got != want {
		t.Fatalf("%s: XML differs from the reference\ngot:\n%q\nwant:\n%q", name, got, want)
	}
	var b strings.Builder
	if err := tree.WriteXML(&b); err != nil {
		t.Fatalf("%s: WriteXML: %v", name, err)
	}
	if b.String() != want {
		t.Fatalf("%s: WriteXML differs from the reference\ngot:\n%q\nwant:\n%q", name, b.String(), want)
	}
}

// TestXMLMatchesReferenceGenerated compares the writer with the
// reference on random conforming trees over the shipped DTDs.
func TestXMLMatchesReferenceGenerated(t *testing.T) {
	for _, name := range []string{"library", "geography", "school"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name+".dtd"))
		if err != nil {
			t.Fatal(err)
		}
		d, err := dtd.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 50; i++ {
			tree, err := Generate(d, rng, GenerateOptions{StarMax: 3, MaxNodes: 60})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			matchReference(t, fmt.Sprintf("%s/%d", name, i), tree)
		}
	}
	// The geography document of Figure 1(b), parsed.
	matchReference(t, "geoDoc", MustParseDocument(geoDoc))
}

// TestXMLMatchesReferenceEdgeCases covers what generated trees never
// hold: text nodes, adjacent text nodes, attribute values and text
// that need escaping or quoting, and a deep chain.
func TestXMLMatchesReferenceEdgeCases(t *testing.T) {
	values := []string{
		"",
		"plain",
		`he said "hi"`,
		"a & b",
		"1<2>0",
		"it's",
		"tab\there",
		"line\nbreak\r\n",
		"café ünïcødé 日本語",
		"emoji 😀",
		"ctl \x00\x01\x1f end",
		"del \x7f",
		"nbsp \u00a0 and zwsp \u200b",
		"bad utf8 \xff\xfe tail",
		"truncated \xe6\x97",
		"noncharacter \ufffe \uffff",
		"replacement \ufffd",
		"surrogate \xed\xa0\x80",
		"backslash \\ and \\n",
		`all "&<>'` + "\t\n\r\x00\xff" + `ü`,
	}
	for i, v := range values {
		a := NewElement("a").SetAttr("v", v).SetAttr("z", v+v).SetAttr("b", "x")
		a.Append(NewText(v))
		matchReference(t, fmt.Sprintf("value %d", i), &Tree{Root: a})
	}

	mixed := NewElement("root").SetAttr("id", "r")
	mixed.Append(
		NewText("t1"), NewText("t2"), NewText("t3"),
		NewElement("e"),
		NewText("t4"),
		NewElement("f").Append(NewText("in f"), NewText("again")),
		NewText("t5"),
	)
	matchReference(t, "mixed", &Tree{Root: mixed})
	matchReference(t, "single", &Tree{Root: NewElement("only")})
	matchReference(t, "text root", &Tree{Root: NewText("just text & <more>")})

	deep := NewElement("n0").SetAttr("d", "0")
	cur := deep
	for i := 1; i < 200; i++ {
		k := NewElement(fmt.Sprintf("n%d", i)).SetAttr("d", fmt.Sprint(i))
		if i%7 == 0 {
			cur.Append(NewText(fmt.Sprintf("t%d", i)))
		}
		cur.Append(k)
		cur = k
	}
	matchReference(t, "deep chain", &Tree{Root: deep})

	if got := (&Tree{}).XML(); got != "" {
		t.Errorf("empty tree XML = %q, want \"\"", got)
	}
}
