package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// tracer collects what a traced run records: spans around the benchmark's
// calls into each layer, CPU profiles of the process doing the work, and
// whether the round attaches the program's own instrumentation. A nil
// *tracer records nothing, so untraced rounds call the same methods.
type tracer struct {
	out   string
	spans spanLog
	// profile makes rounds record CPU profiles: of this process on colocate
	// and fleet, of blessd on serve.
	profile  bool
	profiles []string
	active   *os.File
	// instrument makes rounds attach the obs bus, a kernel-counting
	// sim.Tracer and the invariant checkers.
	instrument bool
}

// profiling reports whether the round should record a CPU profile.
func (t *tracer) profiling() bool { return t != nil && t.profile }

// instrumented reports whether the round should attach the program's
// instrumentation.
func (t *tracer) instrumented() bool { return t != nil && t.instrument }

func newTracer(out string) *tracer {
	return &tracer{out: out, spans: spanLog{t0: time.Now()}}
}

// span is one timed call: IDs are dense from 1; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0   time.Time
	list []span
}

// begin opens a span and returns its ID (0 when untraced).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	s := &t.spans
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name, Start: int64(time.Since(s.t0))})
	return len(s.list)
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans.list[id-1].End = int64(time.Since(t.spans.t0))
}

func (s *spanLog) write(path string) error {
	b, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// startProfile starts a CPU profile of this process.
func (t *tracer) startProfile() error {
	if !t.profiling() {
		return nil
	}
	f, err := os.Create(filepath.Join(t.out, fmt.Sprintf("cpu-%d.pprof", len(t.profiles))))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.active = f
	return nil
}

// stopProfile stops the profile startProfile began.
func (t *tracer) stopProfile() error {
	if t == nil || t.active == nil {
		return nil
	}
	pprof.StopCPUProfile()
	f := t.active
	t.active = nil
	t.profiles = append(t.profiles, f.Name())
	return f.Close()
}

// layerPackages maps each *.cpu_share metric to the packages whose flat
// samples it sums; a package counts toward the first entry that lists it,
// and a trailing "/" matches a package prefix. The rpc layer includes the
// socket I/O beneath net/rpc and gob, whose write syscalls are most of
// blessd's CPU; go is the rest of the runtime: scheduling, allocation, GC.
var layerPackages = []struct {
	metric string
	pkgs   []string
}{
	{"sim.cpu_share", []string{"bless/internal/sim"}},
	{"core.cpu_share", []string{"bless/internal/core"}},
	{"fleet.cpu_share", []string{"bless/internal/fleet"}},
	{"invariant.cpu_share", []string{"bless/internal/invariant"}},
	{"planner.cpu_share", []string{"bless/cmd/blessd/internal/planner"}},
	{"rpc.cpu_share", []string{"net", "net/rpc", "encoding/gob", "internal/poll", "syscall", "internal/runtime/syscall"}},
	{"go.cpu_share", []string{"runtime", "runtime/", "internal/runtime/"}},
}

// cpuShares turns the recorded profiles into per-layer CPU shares.
func (t *tracer) cpuShares() (map[string]float64, error) {
	out := map[string]float64{}
	for _, l := range layerPackages {
		out[l.metric] = 0
	}
	if len(t.profiles) == 0 {
		return out, nil
	}
	pkgs, err := packageShares(t.profiles)
	if err != nil {
		return nil, err
	}
	for pkg, share := range pkgs {
		if m := layerOf(pkg); m != "" {
			out[m] += share
		}
	}
	return out, nil
}

// layerOf returns the *.cpu_share metric a package counts toward, or "".
func layerOf(pkg string) string {
	for _, l := range layerPackages {
		for _, p := range l.pkgs {
			if pkg == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(pkg, p)) {
				return l.metric
			}
		}
	}
	return ""
}

// packageShares runs `go tool pprof -top` over the profiles (merged) and
// returns each package's share of all samples, by flat time.
func packageShares(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, profiles...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTop(text)
}

// parseTop sums the flat% column of `go tool pprof -top` output by package.
// Rows read "flat flat% sum% cum cum% function [(inline)]".
func parseTop(text []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			return nil, fmt.Errorf("pprof -top: unexpected row %q", sc.Text())
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: row %q: %v", sc.Text(), err)
		}
		out[packageOf(f[5])] += pct / 100
	}
	if !header {
		return nil, fmt.Errorf("pprof -top: no table header in output")
	}
	return out, sc.Err()
}

// packageOf extracts the import path from a symbol name such as
// "bless/internal/sim.(*GPU).reschedule" or "slices.SortFunc[go.shape.*a/b.T]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
