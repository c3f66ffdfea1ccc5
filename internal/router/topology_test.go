package router

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseShardSpecs(t *testing.T) {
	got, err := ParseShardSpecs([]string{
		"1=http://c",
		"0 = http://a, http://b",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"http://a", "http://b"}, {"http://c"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestParseShardSpecsErrors(t *testing.T) {
	cases := []struct {
		name string
		in   []string
		frag string
	}{
		{"no equals", []string{"http://a"}, "want <index>="},
		{"bad index", []string{"x=http://a"}, "bad index"},
		{"out of range", []string{"0=http://a", "2=http://b"}, "out of range"},
		{"duplicate", []string{"0=http://a", "0=http://b"}, "specified twice"},
		{"no urls", []string{"0= , "}, "no replica URLs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseShardSpecs(tc.in)
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %v, want containing %q", err, tc.frag)
			}
		})
	}
}

func TestParseTopology(t *testing.T) {
	got, err := ParseTopology([]byte(`{"shards": [["http://a", "http://b"], ["http://c"]]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"http://a", "http://b"}, {"http://c"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestParseTopologyErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		frag string
	}{
		{"unknown field", `{"shards": [["http://a"]], "extra": 1}`, "unknown field"},
		{"no shards", `{"shards": []}`, "no shards"},
		{"empty replica set", `{"shards": [["http://a"], []]}`, "shard 1 lists no replica URLs"},
		{"not json", `shards: yaml?`, "decoding topology"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTopology([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %v, want containing %q", err, tc.frag)
			}
		})
	}
}

func TestLoadTopologyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(path, []byte(`{"shards": [["http://a"]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTopologyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, [][]string{{"http://a"}}) {
		t.Fatalf("got %v", got)
	}
	if _, err := LoadTopologyFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file produced no error")
	}
}

// TestNewValidation pins the constructor's topology checks, including
// the cross-shard duplicate-URL guard.
func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		frag string
	}{
		{"no shards", Config{}, "no shards"},
		{"empty group", Config{Shards: [][]string{{}}}, "no replicas"},
		{"empty url", Config{Shards: [][]string{{" "}}}, "empty URL"},
		{"bad scheme", Config{Shards: [][]string{{"ftp://a"}}}, "http://"},
		{"duplicate across shards", Config{Shards: [][]string{{"http://a"}, {"http://a"}}}, "duplicate"},
		{"duplicate within shard", Config{Shards: [][]string{{"http://a", "http://a/"}}}, "duplicate"},
		{"negative hedge", Config{Shards: [][]string{{"http://a"}}, HedgeAfter: -1}, "HedgeAfter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := New(tc.cfg)
			if err == nil {
				rt.Close()
				t.Fatalf("config accepted, want error containing %q", tc.frag)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %v, want containing %q", err, tc.frag)
			}
		})
	}
}
