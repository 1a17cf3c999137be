package graph

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// edgeHash is a short digest of g's node count and sorted edge list.
func edgeHash(g *Graph) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d:", g.N())
	for _, e := range g.Edges() {
		fmt.Fprintf(h, "%d-%d,", e[0], e[1])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// pinnedGenerators maps "seed/generator/params" to the edge-list hash of the
// generated graph and the next rng.Intn(1000) draw after it.
var pinnedGenerators = map[string]string{
	"1/tree/n=1":               "0758ffe9350a70a1/81",
	"1/tree/n=10":              "2b5df9c0b54a3e79/300",
	"1/tree/n=64":              "b1f31dce7ec64d55/156",
	"1/tree/n=256":             "44221c82b8dbc11f/14",
	"1/connected/n=1/p=0.5":    "0758ffe9350a70a1/81",
	"1/connected/n=10/p=0.3":   "12f903663436a2aa/147",
	"1/connected/n=40/p=0":     "7f485599c2b3b2dd/82",
	"1/connected/n=16/p=1":     "6eed6ca35cb9d085/726",
	"1/connected/n=64/p=0.25":  "a42b422e67bc1080/730",
	"1/connected/n=256/p=0.05": "18be660c4e680f22/779",
	"1/regularish/n=1/d=1":     "0758ffe9350a70a1/81",
	"1/regularish/n=8/d=10":    "540a81eb5839ff73/818",
	"1/regularish/n=12/d=3":    "27377766f157a8e9/271",
	"1/regularish/n=20/d=5":    "42762dc526870390/60",
	"1/regularish/n=64/d=3":    "5c373951268d80d7/884",
	"1/regularish/n=256/d=3":   "d8a81e77a5b61c48/304",
	"2/tree/n=1":               "0758ffe9350a70a1/786",
	"2/tree/n=10":              "7e002d4a5498431a/176",
	"2/tree/n=64":              "a9c874ca1bd9e476/385",
	"2/tree/n=256":             "f863813c1183645b/534",
	"2/connected/n=1/p=0.5":    "0758ffe9350a70a1/786",
	"2/connected/n=10/p=0.3":   "be34a2cdb2210ec2/733",
	"2/connected/n=40/p=0":     "93f728140eb3a463/22",
	"2/connected/n=16/p=1":     "6eed6ca35cb9d085/773",
	"2/connected/n=64/p=0.25":  "c33d38b87b51abae/825",
	"2/connected/n=256/p=0.05": "978470202f2ff435/168",
	"2/regularish/n=1/d=1":     "0758ffe9350a70a1/786",
	"2/regularish/n=8/d=10":    "540a81eb5839ff73/388",
	"2/regularish/n=12/d=3":    "cb04f9da457d86e0/92",
	"2/regularish/n=20/d=5":    "f4daaa5589bc7ca3/40",
	"2/regularish/n=64/d=3":    "a1f8429442e6fa6c/663",
	"2/regularish/n=256/d=3":   "ecd9208b1baade5a/893",
	"3/tree/n=1":               "0758ffe9350a70a1/8",
	"3/tree/n=10":              "de4a9c65322b9196/747",
	"3/tree/n=64":              "0da8b3a45f6d9e82/414",
	"3/tree/n=256":             "f03cd50857043ddd/903",
	"3/connected/n=1/p=0.5":    "0758ffe9350a70a1/8",
	"3/connected/n=10/p=0.3":   "dd527868a5c7b3be/2",
	"3/connected/n=40/p=0":     "3ebf979c8c7e0907/696",
	"3/connected/n=16/p=1":     "6eed6ca35cb9d085/749",
	"3/connected/n=64/p=0.25":  "c71d0edda88a5f48/983",
	"3/connected/n=256/p=0.05": "e93b5bf7dcb81d88/934",
	"3/regularish/n=1/d=1":     "0758ffe9350a70a1/8",
	"3/regularish/n=8/d=10":    "540a81eb5839ff73/943",
	"3/regularish/n=12/d=3":    "3bed359e4fd5041a/709",
	"3/regularish/n=20/d=5":    "136af1de2945a90e/706",
	"3/regularish/n=64/d=3":    "8b9b3741d53b3ab0/948",
	"3/regularish/n=256/d=3":   "9ff8cf032959efd9/309",
}

// TestRandomGeneratorsPinned pins the exact output of the seeded random
// generators. Scenario topologies, campaign streams and churn schedules all
// derive from these edge lists and from the rng state they leave behind, so
// a change to a generator's draw sequence must fail here, not show up as a
// silent drift in every downstream measurement. The draw that follows each
// generator pins how many values it consumed: downstream fault and churn
// draws continue the same stream.
func TestRandomGeneratorsPinned(t *testing.T) {
	builds := []struct {
		name  string
		build func(rng *rand.Rand) *Graph
	}{
		{"tree/n=1", func(r *rand.Rand) *Graph { return RandomTree(1, r) }},
		{"tree/n=10", func(r *rand.Rand) *Graph { return RandomTree(10, r) }},
		{"tree/n=64", func(r *rand.Rand) *Graph { return RandomTree(64, r) }},
		{"tree/n=256", func(r *rand.Rand) *Graph { return RandomTree(256, r) }},
		{"connected/n=1/p=0.5", func(r *rand.Rand) *Graph { return RandomConnected(1, 0.5, r) }},
		{"connected/n=10/p=0.3", func(r *rand.Rand) *Graph { return RandomConnected(10, 0.3, r) }},
		{"connected/n=40/p=0", func(r *rand.Rand) *Graph { return RandomConnected(40, 0, r) }},
		{"connected/n=16/p=1", func(r *rand.Rand) *Graph { return RandomConnected(16, 1, r) }},
		{"connected/n=64/p=0.25", func(r *rand.Rand) *Graph { return RandomConnected(64, 0.25, r) }},
		{"connected/n=256/p=0.05", func(r *rand.Rand) *Graph { return RandomConnected(256, 0.05, r) }},
		{"regularish/n=1/d=1", func(r *rand.Rand) *Graph { return RandomRegularish(1, 1, r) }},
		{"regularish/n=8/d=10", func(r *rand.Rand) *Graph { return RandomRegularish(8, 10, r) }},
		{"regularish/n=12/d=3", func(r *rand.Rand) *Graph { return RandomRegularish(12, 3, r) }},
		{"regularish/n=20/d=5", func(r *rand.Rand) *Graph { return RandomRegularish(20, 5, r) }},
		{"regularish/n=64/d=3", func(r *rand.Rand) *Graph { return RandomRegularish(64, 3, r) }},
		{"regularish/n=256/d=3", func(r *rand.Rand) *Graph { return RandomRegularish(256, 3, r) }},
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, b := range builds {
			key := fmt.Sprintf("%d/%s", seed, b.name)
			rng := rand.New(rand.NewSource(seed))
			g := b.build(rng)
			got := fmt.Sprintf("%s/%d", edgeHash(g), rng.Intn(1000))
			if want := pinnedGenerators[key]; got != want {
				t.Errorf("%s: got %s, want %s", key, got, want)
			}
		}
	}
}
