package satbelim

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	// inventoryRow is a row of DESIGN.md §3's table: its module's path.
	inventoryRow = regexp.MustCompile("(?m)^\\| `([^`]+)` \\|")
	// designHeading is a numbered heading of DESIGN.md: "## 6." or "### 6.1".
	designHeading = regexp.MustCompile(`(?m)^#{2,3} (\d+(?:\.\d+)?)\.? `)
	// citedTest is a test, fuzz target or benchmark named in prose, with a
	// trailing * for a family of names.
	citedTest = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*\*?`)
	// declaredTest is the declaration of one in a _test.go file.
	declaredTest = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	// designCitation is a citation of a DESIGN.md section.
	designCitation = regexp.MustCompile(`DESIGN(?:\.md)?,? §(\d+(?:\.\d+)?)`)
)

// TestDesignMatchesTheTree holds DESIGN.md to the tree it describes. §3
// has a row for every directory under internal/, cmd/ and examples/ that
// holds non-test Go; every test, fuzz target and benchmark DESIGN.md names
// is declared in some _test.go file (a name ending in * stands for every
// name it begins); and every "DESIGN.md §N" or "DESIGN §N.M" in the repo's
// Go, Markdown and YAML files names a heading DESIGN.md has. It reads files
// only.
func TestDesignMatchesTheTree(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(raw)

	var modules, declared []string
	sources := map[string]string{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && name != ".github" && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(name) {
		case ".go":
			dir := filepath.ToSlash(filepath.Dir(path))
			top, _, _ := strings.Cut(dir, "/")
			if !strings.HasSuffix(name, "_test.go") && dir != top && slices.Contains([]string{"internal", "cmd", "examples"}, top) &&
				!slices.Contains(modules, dir) {
				modules = append(modules, dir)
			}
		case ".md", ".yml", ".yaml":
		default:
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sources[filepath.ToSlash(path)] = string(src)
		if strings.HasSuffix(name, "_test.go") {
			for _, m := range declaredTest.FindAllStringSubmatch(string(src), -1) {
				declared = append(declared, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// §3 is the text from its heading to the next top-level one.
	_, inventory, _ := strings.Cut(design, "\n## 3. ")
	inventory, _, _ = strings.Cut(inventory, "\n## ")
	rows := map[string]bool{}
	for _, m := range inventoryRow.FindAllStringSubmatch(inventory, -1) {
		rows[m[1]] = true
	}
	for _, dir := range modules {
		if !rows[dir] {
			t.Errorf("DESIGN.md §3 has no row for %s", dir)
		}
	}

	for _, name := range citedTest.FindAllString(design, -1) {
		prefix, family := strings.CutSuffix(name, "*")
		if !slices.ContainsFunc(declared, func(d string) bool {
			return d == prefix || family && strings.HasPrefix(d, prefix)
		}) {
			t.Errorf("DESIGN.md names %s, which no _test.go file declares", name)
		}
	}

	headings := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(design, -1) {
		headings[m[1]] = true
	}
	for path, src := range sources {
		for _, m := range designCitation.FindAllStringSubmatch(src, -1) {
			if !headings[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which has no such heading", path, m[1])
			}
		}
	}
}
