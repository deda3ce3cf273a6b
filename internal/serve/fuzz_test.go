package serve

import (
	"strings"
	"testing"

	"repro/internal/experiments"
)

// FuzzJobSpec: whatever body a client POSTs to /v1/jobs, decoding it
// never panics, and a spec it accepts names only registered
// experiments, asks for a shard count in [0, maxShards] and carries a
// deadline the runner can parse — the daemon takes these bodies from
// clients it does not trust.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"experiments":["T1","F9"],"seed":3,"quick":true}`,
		`{"experiments":["all"],"tenant":"a","priority":2,"deadline":"90s","capture":true,"shards":4}`,
		`{"experiments":["t1"," f3 "],"seed":1}`,
		`{"experiments":["T1","T1"]}`,
		`{"experiments":[]}`,
		`{"experiments":["F999"]}`,
		`{"experiments":["T1"],"deadline":"-5s"}`,
		`{"experiments":["T1"],"deadline":"soon"}`,
		`{"experiments":["T1"],"shards":65}`,
		`{"experiments":["T1"],"shards":-1}`,
		`{"experiments":["T1"],"bogus":1}`,
		`{"experiments":["T1"],"seed":-1}`,
		`[1,2]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	lookup := func(id string) bool {
		_, ok := experiments.Get(id)
		return ok
	}
	allIDs := func() []string {
		var ids []string
		for _, r := range experiments.All() {
			ids = append(ids, r.ID)
		}
		return ids
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(strings.NewReader(string(body)), lookup, allIDs)
		if err != nil {
			return
		}
		if len(spec.Experiments) == 0 {
			t.Fatalf("accepted a spec with no experiments: %q", body)
		}
		for _, id := range spec.Experiments {
			if !lookup(id) {
				t.Fatalf("accepted unregistered experiment %q from %q", id, body)
			}
		}
		if spec.Shards < 0 || spec.Shards > maxShards {
			t.Fatalf("accepted shards %d from %q", spec.Shards, body)
		}
		if d, err := spec.deadline(); err != nil || d < 0 {
			t.Fatalf("accepted deadline %q (%v, %v) from %q", spec.Deadline, d, err, body)
		}
	})
}
