// Profile and model registries. Profiles are registered by name so the
// service, the CLIs and the facade resolve device families from one
// table instead of a scattered string switch; cell models are
// registered so a DeviceProfile — which rides JSON across the shard
// wire and the service admission surface — can carry its model as a
// plain string.
package silicon

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrUnknownProfile reports a profile (or model) name absent from the
// registry, matchable with errors.Is.
var ErrUnknownProfile = errors.New("silicon: unknown profile")

var registry = struct {
	sync.RWMutex
	profiles map[string]func() (DeviceProfile, error)
	models   map[string]CellModel
}{
	profiles: map[string]func() (DeviceProfile, error){},
	models:   map[string]CellModel{},
}

// CanonicalName folds a profile name for matching — lower case, no
// surrounding space — so lookups accept both "atmega32u4" and the display
// name "ATmega32u4", and per-profile screening floors match by one rule.
func CanonicalName(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// Register adds a profile constructor under name (case-insensitive).
// It panics on an empty name or a duplicate — registration is
// program-initialisation wiring, and a silent overwrite would let two
// packages disagree about what a campaign measures.
func Register(name string, build func() (DeviceProfile, error)) {
	key := CanonicalName(name)
	if key == "" || build == nil {
		panic("silicon: Register needs a name and a constructor")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.profiles[key]; dup {
		panic(fmt.Sprintf("silicon: profile %q registered twice", key))
	}
	registry.profiles[key] = build
}

// Lookup resolves a registered profile by name (case-insensitive). The
// returned profile is validated; unknown names report ErrUnknownProfile
// listing every registered name.
func Lookup(name string) (DeviceProfile, error) {
	registry.RLock()
	build := registry.profiles[CanonicalName(name)]
	registry.RUnlock()
	if build == nil {
		return DeviceProfile{}, fmt.Errorf("%w %q (registered: %s)", ErrUnknownProfile, name, strings.Join(Names(), ", "))
	}
	p, err := build()
	if err != nil {
		return DeviceProfile{}, err
	}
	return p, p.Validate()
}

// Names returns every registered profile name, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.profiles))
	for name := range registry.profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RegisterModel adds a cell model under its ModelName. Like Register it
// panics on duplicates and empty names.
func RegisterModel(m CellModel) {
	key := CanonicalName(m.ModelName())
	if key == "" {
		panic("silicon: RegisterModel needs a named model")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.models[key]; dup {
		panic(fmt.Sprintf("silicon: cell model %q registered twice", key))
	}
	registry.models[key] = m
}

// LookupModel resolves a registered cell model by name. The empty name
// is the calibrated i.i.d. model, so every pre-registry profile keeps
// its historical behaviour.
func LookupModel(name string) (CellModel, error) {
	if CanonicalName(name) == "" {
		name = ModelIID
	}
	registry.RLock()
	m := registry.models[CanonicalName(name)]
	registry.RUnlock()
	if m == nil {
		return nil, fmt.Errorf("%w: cell model %q (registered: %s)", ErrUnknownProfile, name, strings.Join(ModelNames(), ", "))
	}
	return m, nil
}

// ModelNames returns every registered cell-model name, sorted.
func ModelNames() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.models))
	for name := range registry.models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterModel(iidModel{})
	RegisterModel(correlatedModel{})
	builtin := func(name string, build func() DeviceProfile) {
		Register(name, func() (DeviceProfile, error) { return build(), nil })
	}
	builtin("atmega32u4", atmega32u4)
	builtin("cmos65nm-accelerated", cmos65nmAccelerated)
	builtin("cachearray-2mb", func() DeviceProfile { return cacheArray("CacheArray-2MB", 2<<20) })
	builtin("cachearray-64kb", func() DeviceProfile { return cacheArray("CacheArray-64KB", 64<<10) })
	builtin("fleetnode-1kb", func() DeviceProfile { return fleetNode("FleetNode-1KB", 1<<10, false) })
	builtin("fleetnode-2kb", func() DeviceProfile { return fleetNode("FleetNode-2KB", 2<<10, true) })
}
