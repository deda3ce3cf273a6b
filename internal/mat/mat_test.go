package mat

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultRegistryContents(t *testing.T) {
	r := DefaultRegistry()
	for _, name := range []string{"metal", "glass", "brick", "wood", "drywall", "absorber", "human"} {
		m, err := r.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if m.Name != name {
			t.Errorf("name mismatch: %q", m.Name)
		}
		if m.ReflectLossDB < 0 || m.PenetrationLossDB < 0 {
			t.Errorf("%s has negative losses", name)
		}
	}
	if _, err := r.Lookup("adamantium"); err == nil {
		t.Error("unknown material should error")
	}
}

func TestMaterialOrdering(t *testing.T) {
	// Metal must reflect more strongly than brick, brick more than absorber.
	r := DefaultRegistry()
	metal := r.MustLookup("metal")
	brick := r.MustLookup("brick")
	absorber := r.MustLookup("absorber")
	if !(metal.ReflectionLossDB(0) < brick.ReflectionLossDB(0)) {
		t.Error("metal should lose less than brick")
	}
	if !(brick.ReflectionLossDB(0) < absorber.ReflectionLossDB(0)) {
		t.Error("brick should lose less than absorber")
	}
}

func TestGrazingIncidenceReflectsMore(t *testing.T) {
	m := DefaultRegistry().MustLookup("brick")
	normal := m.ReflectionLossDB(0)
	grazing := m.ReflectionLossDB(math.Pi/2 - 0.01)
	if grazing >= normal {
		t.Errorf("grazing loss %v should be below normal-incidence loss %v", grazing, normal)
	}
}

func TestReflectionLossMonotoneInAngle(t *testing.T) {
	// Loss decreases (reflectivity increases) monotonically towards grazing.
	m := Material{Name: "x", ReflectLossDB: 9, Roughness: 0.1}
	prev := math.Inf(1)
	for deg := 0; deg <= 89; deg++ {
		l := m.ReflectionLossDB(float64(deg) * math.Pi / 180)
		if l > prev+1e-9 {
			t.Fatalf("loss increased at %d°: %v > %v", deg, l, prev)
		}
		prev = l
	}
}

func TestReflectionLossNonNegativeProperty(t *testing.T) {
	f := func(base, rough, angle float64) bool {
		if math.IsNaN(base) || math.IsInf(base, 0) || math.IsNaN(angle) || math.IsInf(angle, 0) || math.IsNaN(rough) {
			return true
		}
		m := Material{
			Name:          "q",
			ReflectLossDB: math.Abs(math.Mod(base, 40)),
			Roughness:     math.Abs(math.Mod(rough, 1)),
		}
		a := math.Abs(math.Mod(angle, math.Pi/2))
		l := m.ReflectionLossDB(a)
		return l >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoughnessAddsLoss(t *testing.T) {
	smooth := Material{Name: "a", ReflectLossDB: 6, Roughness: 0}
	rough := Material{Name: "b", ReflectLossDB: 6, Roughness: 0.5}
	if !(rough.ReflectionLossDB(0.3) > smooth.ReflectionLossDB(0.3)) {
		t.Error("roughness should add loss")
	}
}

func TestRegisterOverride(t *testing.T) {
	r := NewRegistry()
	r.Register(Material{Name: "foo", ReflectLossDB: 3})
	r.Register(Material{Name: "foo", ReflectLossDB: 7})
	if got := r.MustLookup("foo").ReflectLossDB; got != 7 {
		t.Errorf("override failed: %v", got)
	}
}

func TestNames(t *testing.T) {
	r := NewRegistry()
	r.Register(Material{Name: "b"})
	r.Register(Material{Name: "a"})
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLookup on empty registry should panic")
		}
	}()
	NewRegistry().MustLookup("nope")
}

// A negative or NaN loss would make the tracer's partial-sum loss
// cutoffs inexact, so Lookup and ResolveInto refuse such a material
// instead of returning it.
func TestInvalidLossesRejected(t *testing.T) {
	bad := []Material{
		{Name: "neg-reflect", ReflectLossDB: -1, PenetrationLossDB: 10},
		{Name: "neg-pen", ReflectLossDB: 5, PenetrationLossDB: -0.5},
		{Name: "nan-reflect", ReflectLossDB: math.NaN(), PenetrationLossDB: 10},
		{Name: "nan-pen", ReflectLossDB: 5, PenetrationLossDB: math.NaN()},
		{Name: "neg-inf-pen", ReflectLossDB: 5, PenetrationLossDB: math.Inf(-1)},
	}
	r := NewRegistry()
	r.Register(Material{Name: "ok", ReflectLossDB: 0, PenetrationLossDB: math.Inf(1)})
	for _, m := range bad {
		r.Register(m)
		if _, err := r.Lookup(m.Name); err == nil || !strings.Contains(err.Error(), "mat: invalid material") ||
			!strings.Contains(err.Error(), m.Name) {
			t.Errorf("Lookup(%q) = %v, want an invalid-material error naming it", m.Name, err)
		}
		if _, err := r.ResolveInto(nil, []string{"ok", m.Name}); err == nil ||
			!strings.Contains(err.Error(), "mat: invalid material") {
			t.Errorf("ResolveInto(%q) = %v, want an invalid-material error", m.Name, err)
		}
	}
	// Zero and +Inf losses stay valid.
	if got, err := r.ResolveInto(nil, []string{"ok"}); err != nil || len(got) != 1 {
		t.Errorf("ResolveInto(ok) = %v, %v", got, err)
	}
	for _, name := range DefaultRegistry().Names() {
		if _, err := DefaultRegistry().Lookup(name); err != nil {
			t.Errorf("default material %q rejected: %v", name, err)
		}
	}
}
