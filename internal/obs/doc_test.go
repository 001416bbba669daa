package obs

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocListsEveryKind keeps docs/OBSERVABILITY.md honest: the rows of
// its "Event kinds" table must be exactly kindNames, in declaration
// order. Adding a Kind without documenting it — or documenting one that
// no longer exists — fails here.
func TestDocListsEveryKind(t *testing.T) {
	const path = "../../docs/OBSERVABILITY.md"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Event kinds\n")
	if !ok {
		t.Fatalf("%s has no \"## Event kinds\" section", path)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z-]+)`").FindAllStringSubmatch(section, -1) {
		documented = append(documented, m[1])
	}
	if got, want := strings.Join(documented, " "), strings.Join(kindNames[:], " "); got != want {
		t.Errorf("%s event-kind table and kindNames disagree:\n doc:  %s\n code: %s", path, got, want)
	}
}
