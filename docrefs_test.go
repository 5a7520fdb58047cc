package trimcaching

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdRef matches a Markdown file path such as README.md or docs/BENCHMARKS.md.
var mdRef = regexp.MustCompile(`[A-Za-z0-9_./-]+\.md\b`)

// TestDocReferencesExist fails when a .go file outside testdata names a
// Markdown file that exists neither relative to the repository root nor
// relative to the file's own directory, so a comment cannot send its reader
// to a document that is not there.
func TestDocReferencesExist(t *testing.T) {
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, ref := range mdRef.FindAllString(sc.Text(), -1) {
				if !exists(ref) && !exists(filepath.Join(filepath.Dir(path), ref)) {
					t.Errorf("%s:%d names %s, which does not exist", path, line, ref)
				}
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
}
