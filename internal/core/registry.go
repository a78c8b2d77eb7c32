package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
)

// The controller registry: the runtime's view of every approximation
// site a process hosts. A service registers each controller once at
// startup; the serving, persistence, and metrics layers then enumerate
// the registry uniformly instead of hard-wiring one concrete controller
// — one snapshot file round-trips all of them, and /stats-style
// surfaces report per-controller breaker/loss/level rows. This is the
// "heterogeneous approximation sites under one runtime" architecture of
// Capri and the significance-aware runtimes (PAPERS.md).

// Controller is the uniform operational-phase surface Loop, Func, and
// Func2 expose to the registry: identity, runtime statistics, the
// scalar approximation level, the live sampling interval and last
// recalibration, Select-stage counters, breaker health, and versioned
// state checkpointing.
type Controller interface {
	Name() string
	SLA() float64
	Stats() (executions, monitored int64, meanLoss float64)
	Level() float64
	SampleInterval() int64
	LastRecalibration() (seq int64, act Action)
	SelectorStats() SelectorStats
	Breaker() BreakerStats
	ApproxEnabled() bool
	MarshalState() ([]byte, error)
	RestoreStateJSON(data []byte) error
}

// Every controller kind satisfies the registry surface.
var (
	_ Controller = (*Loop)(nil)
	_ Controller = (*Func)(nil)
	_ Controller = (*Func2)(nil)
)

// Registry is a named collection of controllers. It is safe for
// concurrent use; enumeration preserves registration order so reports
// and snapshots are deterministic.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]Controller
	order  []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Controller)}
}

// Register adds a controller under its own name. Nil controllers, empty
// names, and duplicate names are rejected — a duplicate would make
// snapshot restoration ambiguous.
func (r *Registry) Register(c Controller) error {
	if c == nil {
		return fmt.Errorf("core: registry: nil controller")
	}
	name := c.Name()
	if name == "" {
		return fmt.Errorf("core: registry: controller has no name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("core: registry: duplicate controller %q", name)
	}
	r.byName[name] = c
	r.order = append(r.order, name)
	return nil
}

// Get returns the named controller.
func (r *Registry) Get(name string) (Controller, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.byName[name]
	return c, ok
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Controllers returns the registered controllers in registration order.
func (r *Registry) Controllers() []Controller {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cs := make([]Controller, 0, len(r.order))
	for _, n := range r.order {
		cs = append(cs, r.byName[n])
	}
	return cs
}

// Len reports the number of registered controllers.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.order)
}

// registryStateVersion versions the bundled-snapshot envelope so future
// layout changes can be detected rather than misparsed.
const registryStateVersion = 1

// registryState is the one-document-for-all-controllers snapshot layout:
// each controller's own versioned state, keyed by name.
type registryState struct {
	Version     int                        `json:"version"`
	Controllers map[string]json.RawMessage `json:"controllers"`
}

// MarshalState bundles every registered controller's state into one JSON
// document. A registry therefore satisfies the same Snapshotter surface
// a single controller does (see internal/persist).
func (r *Registry) MarshalState() ([]byte, error) {
	bundle := registryState{
		Version:     registryStateVersion,
		Controllers: make(map[string]json.RawMessage),
	}
	for _, c := range r.Controllers() {
		b, err := c.MarshalState()
		if err != nil {
			return nil, fmt.Errorf("core: registry: marshal %q: %w", c.Name(), err)
		}
		bundle.Controllers[c.Name()] = b
	}
	return json.Marshal(bundle)
}

// RestoreReport records the per-controller outcome of a bundled restore:
// "restored", "cold" (no entry in the snapshot), or "rejected: <why>".
type RestoreReport map[string]string

// rejection returns the name and note of a controller that rejected its
// snapshot entry; ok is false when none did.
func (rep RestoreReport) rejection() (name, note string, ok bool) {
	for name, note := range rep {
		if strings.HasPrefix(note, "rejected") {
			return name, note, true
		}
	}
	return "", "", false
}

// Rejected reports whether any controller rejected its snapshot entry.
func (rep RestoreReport) Rejected() bool {
	_, _, ok := rep.rejection()
	return ok
}

// RestoreAllJSON applies a bundled snapshot to every registered
// controller. A malformed or version-incompatible bundle fails as a
// whole; per-controller rejections do not — each controller either
// restores or stays cold, and the report says which, so a service can
// come up on partial state and surface the rejections instead of
// crashing. Snapshot entries for controllers this process no longer
// registers are ignored.
func (r *Registry) RestoreAllJSON(data []byte) (RestoreReport, error) {
	var bundle registryState
	if err := json.Unmarshal(data, &bundle); err != nil {
		return nil, fmt.Errorf("core: registry: decode snapshot bundle: %w", err)
	}
	if bundle.Version != registryStateVersion {
		return nil, fmt.Errorf("core: registry: snapshot bundle version %d (want %d)",
			bundle.Version, registryStateVersion)
	}
	rep := make(RestoreReport)
	for _, c := range r.Controllers() {
		raw, ok := bundle.Controllers[c.Name()]
		if !ok {
			rep[c.Name()] = "cold"
			continue
		}
		if err := c.RestoreStateJSON(raw); err != nil {
			rep[c.Name()] = "rejected: " + err.Error()
			continue
		}
		rep[c.Name()] = "restored"
	}
	return rep, nil
}

// RestoreStateJSON applies a bundled snapshot and folds the report into
// a single error (nil only when every registered controller restored or
// the bundle was empty of rejections). It exists so a Registry can stand
// wherever a single controller's RestoreStateJSON does; services that
// want per-controller outcomes use RestoreAllJSON.
func (r *Registry) RestoreStateJSON(data []byte) error {
	rep, err := r.RestoreAllJSON(data)
	if err != nil {
		return err
	}
	if name, note, ok := rep.rejection(); ok {
		return fmt.Errorf("core: registry: controller %q %s", name, note)
	}
	return nil
}
