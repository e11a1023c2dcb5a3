// Documentation checks, run by the CI docs job: every intra-repo
// markdown link resolves to a file that exists, and every flag a
// README command example uses is actually defined by that command.
package pramemu

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// markdownFiles returns every tracked .md file under the repo root.
func markdownFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "bench-artifacts" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found")
	}
	return files
}

// TestMarkdownLinks fails on broken intra-repo markdown links: every
// relative [text](target) must name an existing file or directory.
func TestMarkdownLinks(t *testing.T) {
	link := regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	for _, file := range markdownFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		// Drop fenced code blocks: SNIPPETS.md and friends quote
		// exemplar markdown from other repositories verbatim.
		var prose []string
		inFence := false
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if !inFence {
				prose = append(prose, line)
			}
		}
		for _, m := range link.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s): %v", file, m[1], resolved, err)
			}
		}
	}
}

// commandFlags parses the flag names a command defines from its
// main.go flag registrations: package-level flag.X calls, or fs.X
// calls on the flag set a command's parse function registers on.
func commandFlags(t *testing.T, cmd string) map[string]bool {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("cmd", cmd, "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	defs := regexp.MustCompile(`\b(?:flag|fs)\.\w+\((?:&[\w.]+, )?"([a-z0-9]+)"`)
	flags := make(map[string]bool)
	for _, m := range defs.FindAllStringSubmatch(string(src), -1) {
		flags[m[1]] = true
	}
	if len(flags) == 0 {
		t.Fatalf("no flag definitions found in cmd/%s", cmd)
	}
	return flags
}

// TestREADMEExamplesUseRealFlags cross-checks README.md's command
// examples against the binaries: each `-flag` in a routebench /
// pramemu / tables invocation must be a defined flag, and every
// file path the examples mention must exist.
func TestREADMEExamplesUseRealFlags(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	flagsByCmd := map[string]map[string]bool{
		"routebench": commandFlags(t, "routebench"),
		"pramemu":    commandFlags(t, "pramemu"),
		"tables":     commandFlags(t, "tables"),
		"sweepd":     commandFlags(t, "sweepd"),
	}
	flagRe := regexp.MustCompile(`(^| )-([a-z0-9]+)`)
	pathRe := regexp.MustCompile(`(^| )((?:\./)?(?:cmd|sweeps|internal|examples)/[\w./-]+)`)
	for _, line := range strings.Split(string(data), "\n") {
		// A line naming several commands is validated against the one
		// named first — deterministic, unlike map iteration order.
		var flags map[string]bool
		first := len(line) + 1
		for cmd, f := range flagsByCmd {
			i := strings.Index(line, cmd+" ")
			if i < 0 && strings.HasSuffix(line, cmd) {
				i = len(line) - len(cmd)
			}
			if i >= 0 && i < first {
				first = i
				flags = f
			}
		}
		for _, m := range pathRe.FindAllStringSubmatch(line, -1) {
			p := strings.TrimSuffix(strings.TrimPrefix(m[2], "./"), ".")
			if _, err := os.Stat(p); err != nil {
				t.Errorf("README mentions missing path %q in line %q", m[2], strings.TrimSpace(line))
			}
		}
		if flags == nil {
			continue
		}
		for _, m := range flagRe.FindAllStringSubmatch(line, -1) {
			if !flags[m[2]] {
				t.Errorf("README example uses undefined flag -%s in line %q", m[2], strings.TrimSpace(line))
			}
		}
	}
}
