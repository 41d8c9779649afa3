package procfs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestRegisterReadWrite(t *testing.T) {
	fs := New()
	val := "3\n"
	err := fs.Register("/proc/irq/8/smp_affinity",
		func() string { return val },
		func(data string) error { val = data; return nil })
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read("/proc/irq/8/smp_affinity")
	if err != nil || got != "3\n" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if err := fs.Write("/proc/irq/8/smp_affinity", "2\n"); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.Read("/proc/irq/8/smp_affinity"); got != "2\n" {
		t.Fatalf("after write, Read = %q", got)
	}
}

func TestReadOnlyFile(t *testing.T) {
	fs := New()
	fs.MustRegister("/proc/version", func() string { return "RedHawk 1.4\n" }, nil)
	if err := fs.Write("/proc/version", "x"); err == nil {
		t.Fatal("write to read-only file should fail")
	}
	if got, _ := fs.Read("/proc/version"); got != "RedHawk 1.4\n" {
		t.Fatalf("Read = %q", got)
	}
}

func TestMissingPaths(t *testing.T) {
	fs := New()
	if _, err := fs.Read("/nope"); err == nil {
		t.Fatal("read of missing file should fail")
	}
	if err := fs.Write("/nope", "x"); err == nil {
		t.Fatal("write of missing file should fail")
	}
	if _, err := fs.List("/nope"); err == nil {
		t.Fatal("list of missing directory should fail")
	}
	if fs.Exists("/nope") {
		t.Fatal("Exists on missing path")
	}
}

func TestDirectorySemantics(t *testing.T) {
	fs := New()
	fs.MustRegister("/proc/shield/procs", func() string { return "0\n" }, nil)
	fs.MustRegister("/proc/shield/irqs", func() string { return "0\n" }, nil)
	if _, err := fs.Read("/proc/shield"); err == nil {
		t.Fatal("reading a directory should fail")
	}
	if err := fs.Write("/proc/shield", "x"); err == nil {
		t.Fatal("writing a directory should fail")
	}
	names, err := fs.List("/proc/shield")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "irqs" || names[1] != "procs" {
		t.Fatalf("List = %v", names)
	}
	names, err = fs.List("/proc")
	if err != nil || len(names) != 1 || names[0] != "shield/" {
		t.Fatalf("List /proc = %v, %v", names, err)
	}
}

func TestRegisterConflicts(t *testing.T) {
	fs := New()
	fs.MustRegister("/a/b", func() string { return "" }, nil)
	// Registering a file over a directory must fail.
	fs.MustRegister("/d/e/f", func() string { return "" }, nil)
	if err := fs.Register("/d/e", func() string { return "" }, nil); err == nil {
		t.Fatal("registering a file over a directory should fail")
	}
	// Registering a file under a file must fail, at any depth.
	for p, want := range map[string]string{
		"/a/b/c":   `procfs: "/a/b" is a file, not a directory`,
		"/a/b/c/d": `procfs: "c" is a file, not a directory`,
	} {
		if err := fs.Register(p, func() string { return "" }, nil); err == nil || err.Error() != want {
			t.Fatalf("Register(%q) = %v, want %q", p, err, want)
		}
	}
	// Re-registering the same file replaces it.
	fs.MustRegister("/a/b", func() string { return "new" }, nil)
	if got, _ := fs.Read("/a/b"); got != "new" {
		t.Fatalf("replacement failed: %q", got)
	}
}

func TestWriteCallbackError(t *testing.T) {
	fs := New()
	sentinel := errors.New("EINVAL")
	fs.MustRegister("/f", func() string { return "" }, func(string) error { return sentinel })
	if err := fs.Write("/f", "bad"); !errors.Is(err, sentinel) {
		t.Fatalf("Write error = %v, want sentinel", err)
	}
}

func TestPathCleaning(t *testing.T) {
	fs := New()
	fs.MustRegister("/proc/shield/all", func() string { return "ok" }, nil)
	for _, p := range []string{"proc/shield/all", "/proc//shield/all", " /proc/shield/all ", "/proc/shield/../shield/all"} {
		if got, err := fs.Read(p); err != nil || got != "ok" {
			t.Fatalf("Read(%q) = %q, %v", p, got, err)
		}
	}
}

func TestClean(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"proc/shield/all", "/proc/shield/all"},
		{"/proc/shield/all", "/proc/shield/all"},
		{" \t/proc/shield/all \n", "/proc/shield/all"},
		{"  proc/irq ", "/proc/irq"},
		{"//proc//irq//3/", "/proc/irq/3"},
		{"/proc/irq/", "/proc/irq"},
		{"/proc/irq/../shield/./all", "/proc/shield/all"},
		{"../../proc", "/proc"},
		{"/..", "/"},
		{"/", "/"},
		{"", "/"},
		{"  ", "/"},
	} {
		if got := clean(c.in); got != c.want {
			t.Errorf("clean(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWalk(t *testing.T) {
	fs := New()
	for _, p := range []string{"/proc/shield/all", "/proc/shield/irqs", "/proc/irq/8/smp_affinity"} {
		fs.MustRegister(p, func() string { return "" }, nil)
	}
	var visited []string
	if err := fs.Walk("/proc", func(p string) { visited = append(visited, p) }); err != nil {
		t.Fatal(err)
	}
	want := []string{"/proc/irq/8/smp_affinity", "/proc/shield/all", "/proc/shield/irqs"}
	if fmt.Sprint(visited) != fmt.Sprint(want) {
		t.Fatalf("Walk visited %v, want %v", visited, want)
	}
	if err := fs.Walk("/missing", func(string) {}); err == nil {
		t.Fatal("walk of missing path should fail")
	}
}

func TestRegisterRootFails(t *testing.T) {
	fs := New()
	if err := fs.Register("/", func() string { return "" }, nil); err == nil {
		t.Fatal("registering root should fail")
	}
}

func TestListRoot(t *testing.T) {
	fs := New()
	fs.MustRegister("/proc/x", func() string { return "" }, nil)
	names, err := fs.List("/")
	if err != nil || len(names) != 1 || !strings.HasSuffix(names[0], "/") {
		t.Fatalf("List / = %v, %v", names, err)
	}
}
