// Package mat models the reflective behaviour of building materials at
// 60 GHz. The paper's reflection study (Section 4.3) is carried out in a
// conference room with brick, glass, and wood walls, plus a metal
// reflector in the interference case study (Fig. 7); the relative
// strength of reflections off those materials drives which angular-profile
// lobes appear at each measurement location.
//
// The model is deliberately compact: each material carries a normal-
// incidence power reflection coefficient and a penetration loss. The
// angular dependence follows a Schlick-style approximation of the Fresnel
// equations — reflectivity rises towards grazing incidence, which is why
// the paper observes strong lobes from shallow bounces along walls.
// Published 60 GHz measurements (e.g. Langen et al., and the references
// in the paper's Section 2) put first-order reflection losses in the
// 1–15 dB range depending on material; the defaults below sit in those
// ranges.
package mat

import (
	"fmt"
	"math"
	"sort"
)

// Material describes a surface at 60 GHz.
type Material struct {
	// Name identifies the material in wall definitions.
	Name string
	// ReflectLossDB is the power loss of a specular reflection at normal
	// incidence, in dB (≥ 0). Metal is nearly lossless; plasterboard and
	// wood absorb considerably more.
	ReflectLossDB float64
	// PenetrationLossDB is the power loss of a path crossing the
	// material, in dB. At 60 GHz most structural materials are effectively
	// opaque (>30 dB); glass is the main exception.
	PenetrationLossDB float64
	// Roughness in [0,1] adds diffuse scatter loss that grows with
	// incidence obliquity; 0 is a mirror-smooth surface.
	Roughness float64
}

// ReflectionLossDB returns the power loss in dB of a specular reflection
// at the given incidence angle. The incidence angle is measured from the
// surface normal in radians: 0 is head-on, π/2 is grazing.
//
// The Schlick approximation interpolates between the normal-incidence
// reflectivity R0 and total reflection at grazing incidence:
//
//	R(θ) = R0 + (1 − R0)·(1 − cos θ)^5
//
// Roughness reduces the specular component by a factor that shrinks the
// effective reflectivity as the surface deviates from smooth.
func (m Material) ReflectionLossDB(incidence float64) float64 {
	c := math.Cos(incidence)
	if c < 0 {
		c = 0
	}
	r0 := math.Pow(10, -m.ReflectLossDB/10)
	r := r0 + (1-r0)*math.Pow(1-c, 5)
	if m.Roughness > 0 {
		// Rayleigh roughness factor, flattened to keep the model stable:
		// rough surfaces scatter part of the energy out of the specular
		// direction.
		r *= 1 - 0.5*m.Roughness
	}
	if r <= 0 {
		return math.Inf(1)
	}
	if r > 1 {
		r = 1
	}
	return -10 * math.Log10(r)
}

// Registry maps material names to definitions. The zero value is unusable;
// use NewRegistry or DefaultRegistry.
type Registry struct {
	byName map[string]Material
	rev    uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Material)}
}

// Register adds or replaces a material definition, advancing the
// registry's revision counter.
func (r *Registry) Register(m Material) {
	r.byName[m.Name] = m
	r.rev++
}

// Rev returns the registry's mutation counter. Caches of resolved
// materials (the ray tracer's wall slab) snapshot it so a material
// registered or redefined after cache construction is still picked up,
// while untouched registries pay only an integer compare per query.
func (r *Registry) Rev() uint64 { return r.rev }

// Lookup returns the named material. Unknown names return an error so a
// mistyped wall material fails loudly at scenario-build time rather than
// silently propagating with zero loss; so does a material with a
// negative or NaN loss.
func (r *Registry) Lookup(name string) (Material, error) {
	m, ok := r.byName[name]
	if !ok {
		return Material{}, fmt.Errorf("mat: unknown material %q", name)
	}
	if err := m.validate(); err != nil {
		return Material{}, err
	}
	return m, nil
}

// validate rejects a material whose losses are negative or NaN. The ray
// tracer's loss cutoffs drop a path as soon as a partial loss sum
// exceeds the budget, which is exact only because every loss term is
// ≥ 0: a negative term could bring an over-budget path back under, and
// a NaN compares false against any budget.
func (m Material) validate() error {
	// Written as !(x >= 0) so NaN fails too.
	if !(m.ReflectLossDB >= 0) || !(m.PenetrationLossDB >= 0) {
		return fmt.Errorf("mat: invalid material %q: losses must be non-negative numbers (ReflectLossDB %v, PenetrationLossDB %v)",
			m.Name, m.ReflectLossDB, m.PenetrationLossDB)
	}
	return nil
}

// ResolveInto resolves a batch of material names in one call, appending
// the definitions onto dst (reusing its capacity) in input order. The ray
// tracer uses this to materialize a dense wall→material slab once per
// room revision, so the per-leg hot loops index a slice instead of
// hashing a name per crossed wall. Any unknown name or invalid material
// fails the whole batch, matching Lookup's fail-loudly contract.
func (r *Registry) ResolveInto(dst []Material, names []string) ([]Material, error) {
	for _, n := range names {
		m, err := r.Lookup(n)
		if err != nil {
			return nil, err
		}
		dst = append(dst, m)
	}
	return dst, nil
}

// MustLookup is Lookup but panics on unknown names; scenario builders use
// it with the built-in material set.
func (r *Registry) MustLookup(name string) Material {
	m, err := r.Lookup(name)
	if err != nil {
		panic(err)
	}
	return m
}

// Names returns the registered material names in sorted order.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefaultRegistry returns the built-in 60 GHz material set used by the
// reproduction scenarios.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	for _, m := range []Material{
		// Metal: near-perfect reflector — the paper's Fig. 7 reflector is
		// metallic precisely because its reflection carries interference
		// across shielded links.
		{Name: "metal", ReflectLossDB: 1, PenetrationLossDB: 80, Roughness: 0.02},
		// Glass: strong reflector and the only common material with
		// meaningful transmission at 60 GHz. The paper traces a Fig. 18
		// lobe to a reflection off a window.
		{Name: "glass", ReflectLossDB: 6, PenetrationLossDB: 8, Roughness: 0.02},
		// Brick/concrete: moderate reflector, opaque.
		{Name: "brick", ReflectLossDB: 10, PenetrationLossDB: 60, Roughness: 0.25},
		// Wood (doors, panelling): weaker reflector; the paper still sees
		// a second-order lobe via the wooden wall at location B.
		{Name: "wood", ReflectLossDB: 11, PenetrationLossDB: 25, Roughness: 0.2},
		// Drywall/plasterboard: weak reflector, partially penetrable.
		{Name: "drywall", ReflectLossDB: 13, PenetrationLossDB: 15, Roughness: 0.2},
		// Absorber: used to model the paper's shielding elements that
		// suppress direct side-lobe interference in Fig. 7.
		{Name: "absorber", ReflectLossDB: 40, PenetrationLossDB: 60, Roughness: 0.5},
		// Human body: the dominant dynamic blocker at 60 GHz; prior work
		// the paper cites puts the blockage loss at 20–40 dB.
		{Name: "human", ReflectLossDB: 18, PenetrationLossDB: 35, Roughness: 0.6},
	} {
		r.Register(m)
	}
	return r
}
