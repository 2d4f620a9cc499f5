// Package faultinject is a dependency-free registry of named fault points
// for chaos testing. Code on a failure-path seam places a single call —
//
//	if err := faultinject.Hit("resultcache.disk.write"); err != nil { ... }
//
// — and the point does nothing until a test (Arm) or an operator
// (`hcserve -fault`, via ArmSpec) arms it with an action: return an error,
// inject latency, or panic, each at a configurable probability. The whole
// design budget goes to the disarmed path: Hit is one atomic load when no
// point anywhere is armed, so fault points can sit on production hot paths
// permanently instead of being compiled in and out.
//
// The registry is process-global on purpose. Fault points are addressed by
// stable dotted names (documented in docs/OPERATIONS.md), and arming is a
// test/operator action, not a per-component configuration — exactly like
// the failure injection the source paper performs on its target systems.
// Tests that arm points must DisarmAll in cleanup; points are cheap enough
// that call sites never need to guard them.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects what an armed fault point does when it triggers.
type Kind uint8

const (
	// KindError makes Hit return an error (ErrInjected unless overridden).
	KindError Kind = iota
	// KindLatency makes Hit sleep for the configured delay, then succeed.
	KindLatency
	// KindPanic makes Hit panic.
	KindPanic
)

// String names the kind the way ArmSpec spells it.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindPanic:
		return "panic"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ErrInjected is the error a triggered KindError fault returns (wrapped
// with the point name); match it with errors.Is.
var ErrInjected = errors.New("injected fault")

// Fault configures one armed fault point.
type Fault struct {
	// Kind is the action taken when the point triggers.
	Kind Kind
	// P is the probability in (0, 1] that a single Hit triggers. Values
	// outside that range (including the zero value) mean "always".
	P float64
	// Delay is how long a KindLatency trigger sleeps.
	Delay time.Duration
	// Err, when non-nil, replaces ErrInjected for a KindError trigger.
	Err error
}

// point is one armed registry entry.
type point struct {
	fault     Fault
	triggered int64
}

var (
	// armedTotal counts armed points. The disarmed fast path of Hit is a
	// single load of this counter — no map, no lock, no allocation.
	armedTotal atomic.Int32

	mu       sync.Mutex
	points          = map[string]*point{}
	rngState uint64 = 0x9e3779b97f4a7c15
)

// Hit consults the named fault point. It returns nil when the point is
// disarmed or its probability draw does not trigger; otherwise it performs
// the armed action: returns an error (KindError), sleeps then returns nil
// (KindLatency), or panics (KindPanic). Safe for concurrent use; when
// nothing is armed anywhere the cost is one atomic load.
func Hit(name string) error {
	if armedTotal.Load() == 0 {
		return nil
	}
	return hitSlow(name)
}

func hitSlow(name string) error {
	mu.Lock()
	p, ok := points[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	f := p.fault
	trigger := f.P <= 0 || f.P > 1 || rngFloatLocked() < f.P
	if trigger {
		p.triggered++
	}
	mu.Unlock()
	if !trigger {
		return nil
	}
	switch f.Kind {
	case KindLatency:
		time.Sleep(f.Delay)
		return nil
	case KindPanic:
		panic(fmt.Sprintf("faultinject: injected panic at %q", name))
	default:
		if f.Err != nil {
			return f.Err
		}
		return fmt.Errorf("faultinject: %w at %q", ErrInjected, name)
	}
}

// rngFloatLocked draws a uniform float64 in [0, 1). Callers hold mu; the
// generator is splitmix64, reseedable via Seed for deterministic tests.
func rngFloatLocked() float64 {
	rngState += 0x9e3779b97f4a7c15
	z := rngState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Seed reseeds the probability generator, making sub-1.0 probability draws
// reproducible in tests.
func Seed(s uint64) {
	mu.Lock()
	rngState = s
	mu.Unlock()
}

// Arm installs (or replaces) the fault at the named point.
func Arm(name string, f Fault) {
	mu.Lock()
	if _, ok := points[name]; !ok {
		armedTotal.Add(1)
	}
	points[name] = &point{fault: f}
	mu.Unlock()
}

// Disarm removes the fault at the named point, if armed.
func Disarm(name string) {
	mu.Lock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armedTotal.Add(-1)
	}
	mu.Unlock()
}

// DisarmAll removes every armed fault. Tests that Arm must defer this.
func DisarmAll() {
	mu.Lock()
	if n := len(points); n > 0 {
		points = map[string]*point{}
		armedTotal.Add(int32(-n))
	}
	mu.Unlock()
}

// Triggered returns how many times the named point has triggered since it
// was (last) armed; 0 when disarmed.
func Triggered(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.triggered
	}
	return 0
}

// Armed lists the currently armed point names, sorted.
func Armed() []string {
	mu.Lock()
	names := make([]string, 0, len(points))
	for n := range points {
		names = append(names, n)
	}
	mu.Unlock()
	sort.Strings(names)
	return names
}

// ArmSpec arms fault points from a comma-separated spec string, the syntax
// behind `hcserve -fault`:
//
//	point=error[:p]        Hit returns an error (probability p, default 1)
//	point=panic[:p]        Hit panics
//	point=latency:dur[:p]  Hit sleeps dur (time.ParseDuration syntax)
//
// e.g. "resultcache.disk.write=error:1.0,pipeline.worker=latency:50ms:0.3".
func ArmSpec(spec string) error {
	for _, one := range strings.Split(spec, ",") {
		one = strings.TrimSpace(one)
		if one == "" {
			continue
		}
		name, action, ok := strings.Cut(one, "=")
		if !ok || name == "" || action == "" {
			return fmt.Errorf("faultinject: spec %q is not point=action", one)
		}
		parts := strings.Split(action, ":")
		f := Fault{P: 1}
		var probPart string
		switch parts[0] {
		case "error":
			f.Kind = KindError
			if len(parts) > 2 {
				return fmt.Errorf("faultinject: spec %q: error takes at most a probability", one)
			}
			if len(parts) == 2 {
				probPart = parts[1]
			}
		case "panic":
			f.Kind = KindPanic
			if len(parts) > 2 {
				return fmt.Errorf("faultinject: spec %q: panic takes at most a probability", one)
			}
			if len(parts) == 2 {
				probPart = parts[1]
			}
		case "latency":
			f.Kind = KindLatency
			if len(parts) < 2 || len(parts) > 3 {
				return fmt.Errorf("faultinject: spec %q: latency needs a duration (latency:50ms[:p])", one)
			}
			d, err := time.ParseDuration(parts[1])
			if err != nil || d < 0 {
				return fmt.Errorf("faultinject: spec %q: bad duration %q", one, parts[1])
			}
			f.Delay = d
			if len(parts) == 3 {
				probPart = parts[2]
			}
		default:
			return fmt.Errorf("faultinject: spec %q: unknown action %q (error, panic, or latency)", one, parts[0])
		}
		if probPart != "" {
			p, err := strconv.ParseFloat(probPart, 64)
			if err != nil || p <= 0 || p > 1 {
				return fmt.Errorf("faultinject: spec %q: probability %q not in (0, 1]", one, probPart)
			}
			f.P = p
		}
		Arm(name, f)
	}
	return nil
}
