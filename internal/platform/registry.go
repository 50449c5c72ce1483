package platform

import (
	"embed"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// The two Table-III evaluation machines ship embedded so the default
// build needs no files on disk; additional backends register from
// platforms/*.json via LoadFile.
//
//go:embed descriptions/*.json
var embedded embed.FS

var reg = struct {
	sync.RWMutex
	byName map[string]*Backend // canonical name -> description
	order  []string            // registration order (canonical names)
}{byName: map[string]*Backend{}}

func init() {
	names, err := fs()
	if err != nil {
		panic(err)
	}
	for _, name := range names {
		data, err := embedded.ReadFile(name)
		if err != nil {
			panic(fmt.Sprintf("platform: embedded %s: %v", name, err))
		}
		b, err := Parse(data)
		if err != nil {
			panic(fmt.Sprintf("platform: embedded %s: %v", name, err))
		}
		if err := Register(b); err != nil {
			panic(fmt.Sprintf("platform: embedded %s: %v", name, err))
		}
	}
}

// fs lists the embedded description files sorted, so registration order
// (and therefore Paper()/All() order) is deterministic: bdw before rpl.
func fs() ([]string, error) {
	ents, err := embedded.ReadDir("descriptions")
	if err != nil {
		return nil, fmt.Errorf("platform: embedded descriptions: %w", err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, "descriptions/"+e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// Register validates a description and adds it to the registry. A
// backend with an already-registered canonical name replaces the old one
// in place (last wins — file-loaded descriptions can override embedded
// ones); a name or alias colliding with a *different* backend's is an
// error.
func Register(b *Backend) error {
	if err := b.Validate(); err != nil {
		return err
	}
	reg.Lock()
	defer reg.Unlock()
	for name, other := range reg.byName {
		if name == b.Name {
			continue
		}
		for _, n := range append([]string{other.Name}, other.Aliases...) {
			for _, m := range append([]string{b.Name}, b.Aliases...) {
				if strings.EqualFold(n, m) {
					return fmt.Errorf("platform: backend %q: name/alias %q collides with registered backend %q", b.Name, m, other.Name)
				}
			}
		}
	}
	if _, ok := reg.byName[b.Name]; !ok {
		reg.order = append(reg.order, b.Name)
	}
	reg.byName[b.Name] = b
	return nil
}

// Lookup resolves a backend by canonical name or alias,
// case-insensitively. Unknown names return an error listing what is
// registered — never nil.
func Lookup(name string) (*Backend, error) {
	reg.RLock()
	defer reg.RUnlock()
	for _, b := range reg.byName {
		if strings.EqualFold(b.Name, name) {
			return b, nil
		}
		for _, a := range b.Aliases {
			if strings.EqualFold(a, name) {
				return b, nil
			}
		}
	}
	return nil, fmt.Errorf("platform: unknown backend %q (registered: %s)", name, strings.Join(namesLocked(), ", "))
}

func namesLocked() []string {
	return append([]string(nil), reg.order...)
}

// All returns every registered description in registration order.
func All() []*Backend {
	reg.RLock()
	defer reg.RUnlock()
	out := make([]*Backend, 0, len(reg.order))
	for _, name := range reg.order {
		out = append(out, reg.byName[name])
	}
	return out
}

// Paper returns the Table-III evaluation machines (Paper: true) in
// registration order — the set the golden experiments sweep.
func Paper() []*Backend {
	var out []*Backend
	for _, b := range All() {
		if b.Paper {
			out = append(out, b)
		}
	}
	return out
}

// LoadFile parses one description file and registers it (last wins for
// same-name re-registration).
func LoadFile(path string) (*Backend, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("platform: load backend: %w", err)
	}
	b, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	if err := Register(b); err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return b, nil
}

// SplitList splits a comma-separated flag value into its trimmed,
// non-empty items — the one spelling of the binaries' list flags
// (-platform-file, -peer).
func SplitList(list string) []string {
	var out []string
	for _, item := range strings.Split(list, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// LoadFiles is LoadFile over a comma-separated -platform-file value.
func LoadFiles(list string) error {
	for _, path := range SplitList(list) {
		if _, err := LoadFile(path); err != nil {
			return err
		}
	}
	return nil
}
