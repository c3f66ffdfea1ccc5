package router

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Topology construction for cmd/banksrouter. Two sources produce the
// same Config.Shards shape ([][]string — replica URLs per shard):
//
//	-shard 0=urlA,urlB -shard 1=urlC  repeatable, explicit shard index,
//	                                  comma-separated replica URLs
//	-topology file.json               {"shards": [["urlA","urlB"], ["urlC"]]}
//
// URL validation (scheme, duplicates) happens once, in New; these
// helpers only establish the shard→replicas shape.

// ParseShardSpecs builds a topology from repeated "-shard i=url1,url2"
// flag values. Every shard index 0..N-1 must appear exactly once, where
// N is the number of specs.
func ParseShardSpecs(specs []string) ([][]string, error) {
	shards := make([][]string, len(specs))
	for _, spec := range specs {
		idxStr, urls, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("shard spec %q: want <index>=<url>[,<url>...]", spec)
		}
		idx, err := strconv.Atoi(strings.TrimSpace(idxStr))
		if err != nil {
			return nil, fmt.Errorf("shard spec %q: bad index: %v", spec, err)
		}
		if idx < 0 || idx >= len(shards) {
			return nil, fmt.Errorf("shard spec %q: index %d out of range 0..%d (one spec per shard)", spec, idx, len(shards)-1)
		}
		if shards[idx] != nil {
			return nil, fmt.Errorf("shard %d specified twice", idx)
		}
		var reps []string
		for _, u := range strings.Split(urls, ",") {
			if u = strings.TrimSpace(u); u != "" {
				reps = append(reps, u)
			}
		}
		if len(reps) == 0 {
			return nil, fmt.Errorf("shard spec %q lists no replica URLs", spec)
		}
		shards[idx] = reps
	}
	return shards, nil
}

// topologyFile is the -topology JSON schema.
type topologyFile struct {
	// Shards[i] lists replica base URLs for shard i.
	Shards [][]string `json:"shards"`
}

// ParseTopology decodes a topology JSON document (strict: unknown
// fields rejected).
func ParseTopology(data []byte) ([][]string, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var tf topologyFile
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("decoding topology: %w", err)
	}
	if len(tf.Shards) == 0 {
		return nil, fmt.Errorf("topology lists no shards")
	}
	for i, reps := range tf.Shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("topology shard %d lists no replica URLs", i)
		}
	}
	return tf.Shards, nil
}

// LoadTopologyFile reads and parses a -topology file.
func LoadTopologyFile(path string) ([][]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	shards, err := ParseTopology(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return shards, nil
}
