package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"banks"
)

// answerKey is what correctness compares: an answer's root, its score to
// the bit, and its edge list. Labels and timing fields are excluded —
// they differ legitimately between a library call and an HTTP response.
type answerKey struct {
	Root  int32     `json:"root"`
	Score float64   `json:"score"`
	Edges []edgeKey `json:"edges"`
}

type edgeKey struct {
	From int32 `json:"from"`
	To   int32 `json:"to"`
}

// digestAnswers is SHA-256 over root, score bits and edges in answer
// order.
func digestAnswers(answers []answerKey) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, a := range answers {
		put(uint64(a.Root))
		put(math.Float64bits(a.Score))
		put(uint64(len(a.Edges)))
		for _, e := range a.Edges {
			put(uint64(e.From))
			put(uint64(e.To))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// keysOf converts a library result to the comparison form.
func keysOf(res *banks.Result) []answerKey {
	out := make([]answerKey, len(res.Answers))
	for i, a := range res.Answers {
		out[i].Root, out[i].Score = int32(a.Root), a.Score
		out[i].Edges = make([]edgeKey, len(a.Edges))
		for j, e := range a.Edges {
			out[i].Edges[j] = edgeKey{int32(e.From), int32(e.To)}
		}
	}
	return out
}

// reply is what one search returned, in the form every deployment can
// produce.
type reply struct {
	digest      string
	answers     int
	truncated   bool
	bytes       int           // response body size
	firstAnswer time.Duration // stream only: request start → first answer line
}

// httpClient is the one client every loopback request goes through; its
// connection pool is capped at the client-goroutine count.
var httpClient = &http.Client{Transport: &http.Transport{
	MaxIdleConnsPerHost: clients(),
	MaxConnsPerHost:     clients(),
}}

func searchURL(base string, op searchOp) string {
	path := "/v1/search"
	if op.Stream {
		path = "/v1/search/stream"
	}
	v := url.Values{}
	v.Set("q", op.query())
	v.Set("algo", string(op.Algo))
	v.Set("k", strconv.Itoa(searchK))
	v.Set("max_nodes", strconv.Itoa(searchMaxNodes))
	// The tenant default deadline (2s) would truncate a slow query under
	// contention and make its answers timing-dependent; ask for the cap.
	v.Set("timeout", "5s")
	return base + path + "?" + v.Encode()
}

func newSearchRequest(base string, op searchOp, ti traceInfo) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodGet, searchURL(base, op), nil)
	if err != nil {
		return nil, err
	}
	ti.stamp(req)
	return req, nil
}

// httpSearch issues one search over HTTP and returns the reply and the
// client-observed latency (request sent → body fully read). Decoding and
// hashing happen after the clock stops.
func httpSearch(base string, op searchOp, ti traceInfo) (reply, time.Duration, error) {
	req, err := newSearchRequest(base, op, ti)
	if err != nil {
		return reply{}, 0, err
	}
	start := time.Now()
	resp, err := httpClient.Do(req)
	if err != nil {
		return reply{}, 0, err
	}
	var first time.Duration
	var body []byte
	if op.Stream {
		body, first, err = readStream(resp.Body, start)
	} else {
		body, err = io.ReadAll(resp.Body)
	}
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return reply{}, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, lat, fmt.Errorf("%s: HTTP %d: %.200s", req.URL.Path, resp.StatusCode, body)
	}
	var r reply
	if op.Stream {
		r, err = decodeStream(body)
	} else {
		r, err = decodeSearch(body)
	}
	r.bytes, r.firstAnswer = len(body), first
	return r, lat, err
}

// readStream drains an NDJSON body, noting when the first line arrived.
func readStream(body io.Reader, start time.Time) ([]byte, time.Duration, error) {
	br := bufio.NewReader(body)
	var all []byte
	var first time.Duration
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && first == 0 {
			first = time.Since(start)
		}
		all = append(all, line...)
		if err == io.EOF {
			return all, first, nil
		}
		if err != nil {
			return all, first, err
		}
	}
}

func decodeSearch(body []byte) (reply, error) {
	var doc struct {
		Truncated bool        `json:"truncated"`
		Answers   []answerKey `json:"answers"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return reply{}, fmt.Errorf("search response: %w", err)
	}
	return reply{digest: digestAnswers(doc.Answers), answers: len(doc.Answers), truncated: doc.Truncated}, nil
}

func decodeStream(body []byte) (reply, error) {
	var answers []answerKey
	var r reply
	sawTrailer := false
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var doc struct {
			Type      string    `json:"type"`
			Answer    answerKey `json:"answer"`
			Truncated bool      `json:"truncated"`
			Error     string    `json:"error"`
		}
		if err := json.Unmarshal(line, &doc); err != nil {
			return reply{}, fmt.Errorf("stream line: %w", err)
		}
		switch doc.Type {
		case "answer":
			answers = append(answers, doc.Answer)
		case "trailer":
			sawTrailer = true
			r.truncated = doc.Truncated
			if doc.Error != "" {
				return reply{}, fmt.Errorf("stream trailer: %s", doc.Error)
			}
		}
	}
	if !sawTrailer {
		return reply{}, fmt.Errorf("stream ended without a trailer")
	}
	r.digest, r.answers = digestAnswers(answers), len(answers)
	return r, nil
}

// mutateAck is the part of a /v1/mutate response the harness uses.
type mutateAck struct {
	Applied   int   `json:"applied"`
	WALOffset int64 `json:"wal_offset"`
	Durable   bool  `json:"durable"`
}

// encodeBatch renders a batch in the /v1/mutate wire form.
func encodeBatch(ops []banks.MutationOp) []byte {
	wire := make([]map[string]any, len(ops))
	for i, op := range ops {
		m := map[string]any{"op": string(op.Kind)}
		switch op.Kind {
		case banks.OpInsertNode:
			m["table"], m["text"] = op.Table, op.Text
		case banks.OpInsertEdge:
			m["from"], m["to"], m["weight"] = op.From, op.To, op.Weight
		case banks.OpDeleteEdge:
			m["from"], m["to"] = op.From, op.To
		case banks.OpInsertTerm, banks.OpDeleteTerm:
			m["node"], m["term"] = op.Node, op.Term
		}
		wire[i] = m
	}
	body, err := json.Marshal(map[string]any{"ops": wire})
	if err != nil {
		panic(err) // only strings and numbers: cannot fail
	}
	return body
}

func post(u string, body []byte, ti traceInfo) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	ti.stamp(req)
	start := time.Now()
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, 0, err
	}
	out, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("%s: HTTP %d: %.200s", req.URL.Path, resp.StatusCode, out)
	}
	return out, lat, nil
}

// httpMutate posts one batch and returns the ack and the send → durable
// ack latency.
func httpMutate(base string, body []byte, ti traceInfo) (mutateAck, time.Duration, error) {
	out, lat, err := post(base+"/v1/mutate", body, ti)
	if err != nil {
		return mutateAck{}, lat, err
	}
	var ack mutateAck
	if err := json.Unmarshal(out, &ack); err != nil {
		return mutateAck{}, lat, fmt.Errorf("mutate response: %w", err)
	}
	return ack, lat, nil
}

func getJSON(u string, into any) error {
	resp, err := httpClient.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", u, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// scrape fetches and parses a /metrics page.
func scrape(base string) (map[string]float64, error) {
	resp, err := httpClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return scrapeMetrics(resp.Body)
}
