package cluster

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
)

// Shard is one serving shard: a name (the rendezvous-hash identity) and the
// replica endpoints that can answer for it. Every replica of a shard serves
// the same partition subset; the router sends the subset explicitly on each
// sub-query, so replicas need no local configuration beyond the dataset.
type Shard struct {
	Name     string   `json:"name"`
	Replicas []string `json:"replicas"`
}

// ShardMap is the cluster topology the router scatters over. Partition
// ownership is derived, not stored: Assign rendezvous-hashes every partition
// id against the shard names, so the map stays valid as partitions appear
// (a re-ingest with a different planner) without any rebalancing state.
type ShardMap struct {
	Shards []Shard `json:"shards"`
}

// Validate checks the map is usable: at least one shard, every shard named,
// at least one replica each, no duplicate names.
func (m ShardMap) Validate() error {
	if len(m.Shards) == 0 {
		return fmt.Errorf("cluster: shard map is empty")
	}
	seen := map[string]bool{}
	for i, s := range m.Shards {
		if s.Name == "" {
			return fmt.Errorf("cluster: shard %d has no name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("cluster: duplicate shard name %q", s.Name)
		}
		seen[s.Name] = true
		if len(s.Replicas) == 0 {
			return fmt.Errorf("cluster: shard %q has no replicas", s.Name)
		}
		for _, url := range s.Replicas {
			if url == "" {
				return fmt.Errorf("cluster: shard %q has an empty replica URL", s.Name)
			}
		}
	}
	return nil
}

// Assign returns the index of the shard that owns partition id, by
// rendezvous (highest-random-weight) hashing: every shard name is hashed
// together with the partition id and the highest hash wins. The assignment
// is stable — adding or removing a shard moves only the partitions the
// changed shard gains or loses, and replicas never affect it.
//
// The per-(shard, partition) weight runs the FNV name hash and the
// partition id through a splitmix64 finalizer: FNV-1a alone avalanches
// poorly in its high bits over inputs this short, which skews a
// highest-wins comparison badly (a three-shard map can starve one shard
// completely).
func (m ShardMap) Assign(partition int) int {
	best, bestHash := 0, uint64(0)
	for i, s := range m.Shards {
		h := fnv.New64a()
		h.Write([]byte(s.Name))
		v := mix64(h.Sum64() ^ (uint64(partition)+1)*0x9E3779B97F4A7C15)
		if i == 0 || v > bestHash {
			best, bestHash = i, v
		}
	}
	return best
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ParseShards parses the -shards flag form: shards separated by ';',
// replicas of one shard separated by ','. Shards are named s0, s1, … in
// declaration order; empty groups are skipped and take no name, so
// "a;;b" names the same shards as "a;b".
//
//	"http://a:7070,http://a2:7070;http://b:7070"
//
// declares two shards: s0 with two replicas and s1 with one.
func ParseShards(spec string) (ShardMap, error) {
	var m ShardMap
	for _, group := range strings.Split(spec, ";") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		sh := Shard{Name: fmt.Sprintf("s%d", len(m.Shards))}
		for _, url := range strings.Split(group, ",") {
			if url = strings.TrimSpace(url); url != "" {
				sh.Replicas = append(sh.Replicas, url)
			}
		}
		m.Shards = append(m.Shards, sh)
	}
	if err := m.Validate(); err != nil {
		return ShardMap{}, err
	}
	return m, nil
}

// LoadShardMap reads a shard map JSON file:
//
//	{"shards": [{"name": "s0", "replicas": ["http://a:7070"]}, …]}
func LoadShardMap(path string) (ShardMap, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return ShardMap{}, fmt.Errorf("cluster: read shard map: %w", err)
	}
	var m ShardMap
	if err := json.Unmarshal(b, &m); err != nil {
		return ShardMap{}, fmt.Errorf("cluster: parse shard map %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return ShardMap{}, err
	}
	return m, nil
}
