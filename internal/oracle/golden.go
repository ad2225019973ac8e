package oracle

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The golden store: every test that pins output calls Golden, and each
// package keeps one testdata/golden.txt. A block there is a header line
// "name sha256 rowcount" (the digest covers the rows joined by "\n",
// with a trailing newline); a block of at most maxStoredRows bytes also
// keeps its rows, one per line behind a '|', so a mismatch there names
// the first differing row and the file diffs row by row. Golden cannot
// see a stored block that no run produces any more, so a test that
// writes several blocks also pins their names, as the rows of one more
// block named after their common prefix: a block that goes missing or
// is renamed then fails there.
var (
	goldenUpdate = flag.Bool("golden-update", false, "rewrite the blocks this run produces in testdata/golden.txt")
	goldenDump   = flag.String("golden-dump", "", "write each block this run produces to `dir`/<name>.txt")
)

const (
	goldenFile    = "testdata/golden.txt"
	maxStoredRows = 32 << 10
	rowMark       = "|"
)

// goldenMu serialises the store's read-modify-write under -golden-update.
var goldenMu sync.Mutex

type goldenBlock struct {
	name, sum string
	count     int
	rows      []string // nil: digest only
}

// Golden compares rows with the block name of the package's golden
// store, and fails the test naming the block (and, where the store
// keeps the rows, the first row that differs). A name the store does
// not hold is a failure. Under -golden-update it records the block
// instead, keeping every other block of the store; -golden-dump=<dir>
// writes the rows to <dir>/<name>.txt either way. A test that masks
// part of its output masks the rows before it calls Golden.
func Golden(t testing.TB, name string, rows []string) {
	t.Helper()
	if name == "" || strings.ContainsAny(name, " \t\n/"+rowMark) {
		t.Fatalf("golden: block name %q must be non-empty, without blanks, '/' or %q", name, rowMark)
	}
	text := strings.Join(rows, "\n") + "\n"
	if strings.Count(text, "\n") != len(rows) {
		t.Fatalf("golden %s: want one or more rows and no newline inside a row", name)
	}
	got := goldenBlock{name: name, sum: fmt.Sprintf("%x", sha256.Sum256([]byte(text))), count: len(rows)}
	if len(text) <= maxStoredRows {
		got.rows = rows
	}
	goldenMu.Lock()
	defer goldenMu.Unlock()
	if dir := *goldenDump; dir != "" {
		err := os.MkdirAll(dir, 0o755)
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, name+".txt"), []byte(text), 0o644)
		}
		if err != nil {
			t.Fatalf("golden: %v", err)
		}
	}
	store, err := readGolden()
	if err != nil && !(*goldenUpdate && errors.Is(err, fs.ErrNotExist)) {
		t.Fatalf("golden: %v", err)
	}
	at := slices.IndexFunc(store, func(b goldenBlock) bool { return b.name == name })
	if *goldenUpdate {
		if at < 0 {
			store = append(store, got)
		} else {
			store[at] = got
		}
		if err := writeGolden(store); err != nil {
			t.Fatalf("golden: %v", err)
		}
		return
	}
	if at < 0 {
		t.Errorf("golden %s: %s holds no such block (record it with -golden-update)", name, goldenFile)
		return
	}
	want := store[at]
	if want.rows != nil {
		for i := 0; i < len(rows) && i < len(want.rows); i++ {
			if rows[i] != want.rows[i] {
				t.Errorf("golden %s: row %d of %d differs:\n got %s\nwant %s", name, i+1, got.count, rows[i], want.rows[i])
				return
			}
		}
		if got.count != want.count {
			t.Errorf("golden %s: %d rows, the store records %d", name, got.count, want.count)
			return
		}
	}
	switch {
	case want.sum == got.sum && want.count == got.count:
	case want.rows != nil:
		t.Errorf("golden %s: the rows match the stored rows but not the recorded digest %s", name, want.sum)
	default:
		t.Errorf("golden %s: %d rows hash to %s, the store records %d rows hashing to %s; "+
			"compare this tree's -golden-dump=<dir> with a good tree's", name, got.count, got.sum, want.count, want.sum)
	}
}

// readGolden parses the package's store.
func readGolden() ([]goldenBlock, error) {
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		return nil, err
	}
	var store []goldenBlock
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if row, ok := strings.CutPrefix(line, rowMark); ok && len(store) > 0 {
			b := &store[len(store)-1]
			b.rows = append(b.rows, row)
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("%s:%d: want a header line \"name sha256 rowcount\", have %q", goldenFile, i+1, line)
		}
		n, err := strconv.Atoi(f[2])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", goldenFile, i+1, err)
		}
		store = append(store, goldenBlock{name: f[0], sum: f[1], count: n})
	}
	for _, b := range store {
		if b.rows != nil && len(b.rows) != b.count {
			return nil, fmt.Errorf("%s: block %s stores %d rows, its header says %d", goldenFile, b.name, len(b.rows), b.count)
		}
	}
	return store, nil
}

// writeGolden writes the store, blocks sorted by name.
func writeGolden(store []goldenBlock) error {
	slices.SortFunc(store, func(a, b goldenBlock) int { return strings.Compare(a.name, b.name) })
	var sb strings.Builder
	for _, b := range store {
		fmt.Fprintf(&sb, "%s %s %d\n", b.name, b.sum, b.count)
		for _, row := range b.rows {
			sb.WriteString(rowMark + row + "\n")
		}
	}
	if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenFile, []byte(sb.String()), 0o644)
}
