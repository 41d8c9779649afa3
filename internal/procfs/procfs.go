// Package procfs implements an in-memory /proc-style file tree with
// read/write callbacks. The kernel model mounts its control files here —
// /proc/irq/<n>/smp_affinity and the paper's /proc/shield/{procs,irqs,
// ltmr,all} — so that tools and examples configure the simulated system
// exactly the way a system administrator configures RedHawk: by writing
// hex masks into proc files.
package procfs

import (
	"fmt"
	"path"
	"sort"
	"strings"
)

// ReadFunc produces the current contents of a file.
type ReadFunc func() string

// WriteFunc applies a write to a file; it returns an error for invalid
// input (the simulated kernel's -EINVAL).
type WriteFunc func(data string) error

// node is a file or directory in the tree.
type node struct {
	children map[string]*node // non-nil for directories
	read     ReadFunc
	write    WriteFunc
}

// FS is the tree root. The zero value is not usable; call New.
type FS struct {
	root *node
}

// New returns an empty file system.
func New() *FS {
	return &FS{root: &node{children: map[string]*node{}}}
}

// clean canonicalises p to a slash-rooted path. An already clean
// rooted path comes back as is, without a copy.
func clean(p string) string {
	p = strings.TrimSpace(p)
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// lookup walks to p; it returns nil when absent.
func (fs *FS) lookup(p string) *node {
	cur := fs.root
	p = clean(p)
	if p == "/" {
		return cur
	}
	for rest, more := p[1:], true; more; {
		var part string
		part, rest, more = strings.Cut(rest, "/")
		if cur.children == nil {
			return nil
		}
		next, ok := cur.children[part]
		if !ok {
			return nil
		}
		cur = next
	}
	return cur
}

// mkdirAll creates (or walks) the directory chain for p and returns it.
func (fs *FS) mkdirAll(p string) (*node, error) {
	cur := fs.root
	p = clean(p)
	if p == "/" {
		return cur, nil
	}
	for rest, more := p[1:], true; more; {
		var part string
		part, rest, more = strings.Cut(rest, "/")
		if cur.children == nil {
			return nil, fmt.Errorf("procfs: %q is a file, not a directory", part)
		}
		next, ok := cur.children[part]
		if !ok {
			next = &node{children: map[string]*node{}}
			cur.children[part] = next
		}
		cur = next
	}
	if cur.children == nil {
		return nil, fmt.Errorf("procfs: %q is a file, not a directory", p)
	}
	return cur, nil
}

// Register installs a file at p with the given callbacks. A nil write
// makes the file read-only (writes return an error, like EACCES). The
// parent directories are created as needed. Registering over an existing
// file replaces it.
func (fs *FS) Register(p string, read ReadFunc, write WriteFunc) error {
	p = clean(p)
	dir, base := path.Split(p)
	if base == "" {
		return fmt.Errorf("procfs: cannot register root")
	}
	parent, err := fs.mkdirAll(dir)
	if err != nil {
		return err
	}
	if existing, ok := parent.children[base]; ok && existing.children != nil {
		return fmt.Errorf("procfs: %q is a directory", p)
	}
	parent.children[base] = &node{read: read, write: write}
	return nil
}

// MustRegister is Register that panics on error; for init-time wiring.
func (fs *FS) MustRegister(p string, read ReadFunc, write WriteFunc) {
	if err := fs.Register(p, read, write); err != nil {
		panic(err)
	}
}

// Read returns the contents of the file at p.
func (fs *FS) Read(p string) (string, error) {
	n := fs.lookup(p)
	if n == nil {
		return "", fmt.Errorf("procfs: %s: no such file", clean(p))
	}
	if n.children != nil {
		return "", fmt.Errorf("procfs: %s: is a directory", clean(p))
	}
	if n.read == nil {
		return "", fmt.Errorf("procfs: %s: not readable", clean(p))
	}
	return n.read(), nil
}

// Write applies data to the file at p.
func (fs *FS) Write(p, data string) error {
	n := fs.lookup(p)
	if n == nil {
		return fmt.Errorf("procfs: %s: no such file", clean(p))
	}
	if n.children != nil {
		return fmt.Errorf("procfs: %s: is a directory", clean(p))
	}
	if n.write == nil {
		return fmt.Errorf("procfs: %s: permission denied", clean(p))
	}
	return n.write(data)
}

// List returns the sorted names in the directory at p; directories carry a
// trailing slash.
func (fs *FS) List(p string) ([]string, error) {
	n := fs.lookup(p)
	if n == nil {
		return nil, fmt.Errorf("procfs: %s: no such directory", clean(p))
	}
	if n.children == nil {
		return nil, fmt.Errorf("procfs: %s: not a directory", clean(p))
	}
	names := make([]string, 0, len(n.children))
	for name, child := range n.children {
		if child.children != nil {
			name += "/"
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Exists reports whether p names a file or directory.
func (fs *FS) Exists(p string) bool { return fs.lookup(p) != nil }

// Walk visits every file (not directory) under p in sorted order.
func (fs *FS) Walk(p string, visit func(path string)) error {
	n := fs.lookup(p)
	if n == nil {
		return fmt.Errorf("procfs: %s: no such path", clean(p))
	}
	walk(clean(p), n, visit)
	return nil
}

func walk(p string, n *node, visit func(string)) {
	if n.children == nil {
		visit(p)
		return
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		walk(path.Join(p, name), n.children[name], visit)
	}
}
