package oracle

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// recorder is a testing.TB that records Errorf and Fatalf instead of
// failing the test; Fatalf ends the goroutine as testing's does.
type recorder struct {
	testing.TB
	msgs  []string
	fatal bool
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}

func (r *recorder) Fatalf(format string, args ...any) {
	r.Errorf(format, args...)
	r.fatal = true
	runtime.Goexit()
}

// golden runs Golden on a recorder in a goroutine of its own, so a
// Fatalf stops only that call, and returns what it reported.
func golden(t *testing.T, name string, rows []string) *recorder {
	r := &recorder{TB: t}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Golden(r, name, rows)
	}()
	<-done
	return r
}

// setFlags sets -golden-update and -golden-dump for the rest of the
// test.
func setFlags(t *testing.T, update bool, dump string) {
	u, d := *goldenUpdate, *goldenDump
	*goldenUpdate, *goldenDump = update, dump
	t.Cleanup(func() { *goldenUpdate, *goldenDump = u, d })
}

// wantPass fails the test if r reported anything.
func wantPass(t *testing.T, r *recorder) {
	t.Helper()
	if len(r.msgs) != 0 {
		t.Fatalf("reported %q, want nothing", r.msgs)
	}
}

// wantFail fails the test unless r reported one message holding every
// one of parts.
func wantFail(t *testing.T, r *recorder, parts ...string) {
	t.Helper()
	if len(r.msgs) != 1 {
		t.Fatalf("reported %q, want one failure", r.msgs)
	}
	for _, p := range parts {
		if !strings.Contains(r.msgs[0], p) {
			t.Errorf("failure %q does not mention %q", r.msgs[0], p)
		}
	}
}

// smallRows fit the stored form, bigRows only the digest.
var (
	smallRows = []string{"alpha 1", "", "  beta 2", "|gamma 3"}
	bigRows   = strings.Split(strings.Repeat("a row of a block too large to store\n", 1000), "\n")
)

func TestGoldenRoundTrip(t *testing.T) {
	t.Chdir(t.TempDir())
	setFlags(t, true, "")
	wantPass(t, golden(t, "small", smallRows))
	wantPass(t, golden(t, "big", bigRows))
	setFlags(t, false, "")
	wantPass(t, golden(t, "small", smallRows))
	wantPass(t, golden(t, "big", bigRows))

	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) != 2+len(smallRows)+1 || !strings.HasPrefix(lines[0], "big ") || !strings.HasSuffix(lines[1], " 4") {
		t.Errorf("store: big's header, small's header and its four rows, in name order, want; have\n%s", data)
	}
}

func TestGoldenChangedRowFails(t *testing.T) {
	t.Chdir(t.TempDir())
	setFlags(t, true, "")
	wantPass(t, golden(t, "small", smallRows))
	wantPass(t, golden(t, "big", bigRows))
	setFlags(t, false, "")

	changed := append([]string(nil), smallRows...)
	changed[2] = "  beta 3"
	wantFail(t, golden(t, "small", changed), "golden small", "row 3 of 4", "beta 3", "beta 2")
	wantFail(t, golden(t, "small", smallRows[:3]), "golden small", "3 rows", "records 4")

	changed = append([]string(nil), bigRows...)
	changed[500] = "a row that moved"
	wantFail(t, golden(t, "big", changed), "golden big", fmt.Sprintf("%d rows", len(bigRows)), "-golden-dump")
}

func TestGoldenEditedStoreFails(t *testing.T) {
	t.Chdir(t.TempDir())
	setFlags(t, true, "")
	wantPass(t, golden(t, "small", smallRows))
	setFlags(t, false, "")
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(old, new string) {
		t.Helper()
		if err := os.WriteFile(goldenFile, []byte(strings.Replace(string(data), old, new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	edit("|alpha 1", "|alpha 9")
	wantFail(t, golden(t, "small", smallRows), "golden small", "row 1 of 4")
	sum := strings.Fields(string(data))[1]
	edit(sum, strings.Repeat("0", len(sum)))
	wantFail(t, golden(t, "small", smallRows), "golden small", "recorded digest")
}

func TestGoldenUnknownBlockFails(t *testing.T) {
	t.Chdir(t.TempDir())
	setFlags(t, false, "")
	r := golden(t, "anything", smallRows)
	if !r.fatal {
		t.Errorf("no store: reported %q, want a fatal failure", r.msgs)
	}
	setFlags(t, true, "")
	wantPass(t, golden(t, "small", smallRows))
	setFlags(t, false, "")
	wantFail(t, golden(t, "other", smallRows), "golden other", "no such block")
}

func TestGoldenUpdateKeepsOtherBlocks(t *testing.T) {
	t.Chdir(t.TempDir())
	setFlags(t, true, "")
	wantPass(t, golden(t, "small", smallRows))
	wantPass(t, golden(t, "big", bigRows))
	moved := []string{"alpha 2"}
	wantPass(t, golden(t, "small", moved))
	setFlags(t, false, "")
	wantPass(t, golden(t, "big", bigRows))
	wantPass(t, golden(t, "small", moved))
}

func TestGoldenDumpWritesRows(t *testing.T) {
	t.Chdir(t.TempDir())
	dir := filepath.Join(t.TempDir(), "dump")
	setFlags(t, true, dir)
	wantPass(t, golden(t, "small", smallRows))
	setFlags(t, false, dir)
	// A compare dumps too, even one that fails.
	wantFail(t, golden(t, "big", bigRows), "golden big", "no such block")
	for name, rows := range map[string][]string{"small": smallRows, "big": bigRows} {
		got, err := os.ReadFile(filepath.Join(dir, name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.Join(rows, "\n") + "\n"; string(got) != want {
			t.Errorf("%s.txt holds %q, want %q", name, got, want)
		}
	}
}

func TestGoldenRejectsBadInput(t *testing.T) {
	t.Chdir(t.TempDir())
	setFlags(t, true, "")
	for _, tc := range []struct {
		name string
		rows []string
	}{{"a b", smallRows}, {"a/b", smallRows}, {"", smallRows}, {"rows", nil}, {"rows", []string{"a\nb"}}} {
		if r := golden(t, tc.name, tc.rows); !r.fatal {
			t.Errorf("Golden(%q, %q): reported %q, want a fatal failure", tc.name, tc.rows, r.msgs)
		}
	}
	if _, err := os.Stat(goldenFile); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("rejected input wrote the store (%v)", err)
	}
}
