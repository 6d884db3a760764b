package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func mapOf(names ...string) ShardMap {
	m := ShardMap{}
	for _, n := range names {
		m.Shards = append(m.Shards, Shard{Name: n, Replicas: []string{"http://" + n}})
	}
	return m
}

// TestAssignDeterministicAndTotal pins the rendezvous basics: every
// partition gets exactly one in-range shard, and the assignment is a pure
// function of the names.
func TestAssignDeterministicAndTotal(t *testing.T) {
	m := mapOf("s0", "s1", "s2")
	counts := make([]int, 3)
	for p := 0; p < 256; p++ {
		si := m.Assign(p)
		if si < 0 || si >= 3 {
			t.Fatalf("partition %d assigned out of range: %d", p, si)
		}
		if again := m.Assign(p); again != si {
			t.Fatalf("partition %d unstable: %d then %d", p, si, again)
		}
		counts[si]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d owns nothing over 256 partitions: %v", i, counts)
		}
	}
}

// TestAssignMinimalMovement pins the rendezvous property the map depends
// on: adding a shard only moves partitions *to* the new shard — no
// partition moves between surviving shards.
func TestAssignMinimalMovement(t *testing.T) {
	before := mapOf("s0", "s1", "s2")
	after := mapOf("s0", "s1", "s2", "s3")
	moved, toNew := 0, 0
	for p := 0; p < 256; p++ {
		a, b := before.Assign(p), after.Assign(p)
		if a != b {
			moved++
			if b == 3 {
				toNew++
			}
		}
	}
	if moved == 0 {
		t.Fatal("adding a shard moved nothing over 256 partitions")
	}
	if moved != toNew {
		t.Fatalf("%d partitions moved but only %d to the new shard", moved, toNew)
	}
	// Replicas never affect assignment.
	withReps := before
	withReps.Shards[1].Replicas = []string{"http://a", "http://b", "http://c"}
	for p := 0; p < 64; p++ {
		if before.Assign(p) != withReps.Assign(p) {
			t.Fatalf("replica change moved partition %d", p)
		}
	}
}

func TestParseShards(t *testing.T) {
	m, err := ParseShards("http://a:7070,http://a2:7070; http://b:7070")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 2 {
		t.Fatalf("parsed %d shards, want 2", len(m.Shards))
	}
	if m.Shards[0].Name != "s0" || len(m.Shards[0].Replicas) != 2 {
		t.Fatalf("shard 0: %+v", m.Shards[0])
	}
	if m.Shards[1].Name != "s1" || m.Shards[1].Replicas[0] != "http://b:7070" {
		t.Fatalf("shard 1: %+v", m.Shards[1])
	}
	if _, err := ParseShards(""); err == nil {
		t.Fatal("empty spec accepted")
	}

	// An empty group takes no name, so placement matches the spec
	// without it.
	gap, err := ParseShards("http://a:7070;;http://b:7070")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ParseShards("http://a:7070;http://b:7070")
	if err != nil {
		t.Fatal(err)
	}
	if len(gap.Shards) != 2 || gap.Shards[0].Name != "s0" || gap.Shards[1].Name != "s1" {
		t.Fatalf("empty group: %+v", gap.Shards)
	}
	for p := 0; p < 64; p++ {
		if g, w := gap.Assign(p), plain.Assign(p); g != w {
			t.Fatalf("partition %d on shard %d with an empty group, %d without", p, g, w)
		}
	}
}

func TestLoadShardMap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shards.json")
	m := ShardMap{Shards: []Shard{
		{Name: "east", Replicas: []string{"http://e1", "http://e2"}},
		{Name: "west", Replicas: []string{"http://w1"}},
	}}
	b, _ := json.Marshal(m)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadShardMap(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Shards) != 2 || got.Shards[0].Name != "east" || len(got.Shards[0].Replicas) != 2 {
		t.Fatalf("loaded %+v", got)
	}
	if _, err := LoadShardMap(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestValidate(t *testing.T) {
	bad := []ShardMap{
		{},
		{Shards: []Shard{{Name: "", Replicas: []string{"u"}}}},
		{Shards: []Shard{{Name: "a", Replicas: nil}}},
		{Shards: []Shard{{Name: "a", Replicas: []string{"u"}}, {Name: "a", Replicas: []string{"v"}}}},
		{Shards: []Shard{{Name: "a", Replicas: []string{""}}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Fatalf("map %d validated: %+v", i, m)
		}
	}
}
