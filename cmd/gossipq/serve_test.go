package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gossipq"
	"gossipq/internal/livenet"
	"gossipq/internal/shard"
)

func TestQueryFromURL(t *testing.T) {
	const defEps = 0.05
	def := gossipq.ServeSnapshot
	cases := []struct {
		url     string
		want    gossipq.Query
		wantErr string
	}{
		{"/quantile?phi=0.5", gossipq.Query{Phi: 0.5, Eps: defEps, Mode: def}, ""},
		{"/quantile?phi=0.9&eps=0.1", gossipq.Query{Phi: 0.9, Eps: 0.1, Mode: def}, ""},
		{"/quantile?phi=0.25&exact=true", gossipq.Query{Phi: 0.25, Eps: defEps, Exact: true, Mode: def}, ""},
		{"/quantile?phi=0.25&exact=0", gossipq.Query{Phi: 0.25, Eps: defEps, Mode: def}, ""},
		{"/quantile?phi=0.1&mode=live", gossipq.Query{Phi: 0.1, Eps: defEps, Mode: gossipq.ServeLive}, ""},
		{"/quantile?phi=0.1&mode=snapshot", gossipq.Query{Phi: 0.1, Eps: defEps, Mode: gossipq.ServeSnapshot}, ""},
		{"/quantile", gossipq.Query{}, "missing phi"},
		{"/quantile?eps=0.1", gossipq.Query{}, "missing phi"},
		{"/quantile?phi=", gossipq.Query{}, "missing phi"},
		{"/quantile?phi=half", gossipq.Query{}, "bad phi"},
		{"/quantile?phi=0.5&eps=wide", gossipq.Query{}, "bad eps"},
		{"/quantile?phi=0.5&exact=maybe", gossipq.Query{}, "bad exact"},
		{"/quantile?phi=0.5&mode=cached", gossipq.Query{}, "bad mode"},
	}
	for _, c := range cases {
		q, err := queryFromURL(httptest.NewRequest(http.MethodGet, c.url, nil), defEps, def)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err %v, want one mentioning %q", c.url, err, c.wantErr)
			}
			continue
		}
		if err != nil || q != c.want {
			t.Errorf("%s: got %+v, %v; want %+v", c.url, q, err, c.want)
		}
	}
}

func TestQueryJSON(t *testing.T) {
	const defEps = 0.05
	def := gossipq.ServeLive
	cases := []struct {
		body    string
		want    gossipq.Query
		wantErr string
	}{
		{`{"phi":0.5}`, gossipq.Query{Phi: 0.5, Eps: defEps, Mode: def}, ""},
		{`{"phi":0,"eps":0.2}`, gossipq.Query{Phi: 0, Eps: 0.2, Mode: def}, ""},
		{`{"phi":0.9,"exact":true}`, gossipq.Query{Phi: 0.9, Eps: defEps, Exact: true, Mode: def}, ""},
		{`{"phi":0.9,"mode":"snapshot"}`, gossipq.Query{Phi: 0.9, Eps: defEps, Mode: gossipq.ServeSnapshot}, ""},
		{`{}`, gossipq.Query{}, "missing phi"},
		{`{"Phi ":0.5}`, gossipq.Query{}, "missing phi"},
		{`{"phi":0.5,"mode":"fast"}`, gossipq.Query{}, "bad mode"},
	}
	for _, c := range cases {
		var qj queryJSON
		if err := json.Unmarshal([]byte(c.body), &qj); err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		q, err := qj.query(defEps, def)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err %v, want one mentioning %q", c.body, err, c.wantErr)
			}
			continue
		}
		if err != nil || q != c.want {
			t.Errorf("%s: got %+v, %v; want %+v", c.body, q, err, c.want)
		}
	}
}

func TestMutationJSON(t *testing.T) {
	cases := []struct {
		body    string
		want    gossipq.Mutation
		wantErr string
	}{
		{`{"op":"insert","value":7}`, gossipq.Mutation{Op: gossipq.OpInsert, Value: 7}, ""},
		// An insert ignores any index it is sent.
		{`{"op":"insert","index":3,"value":-2}`, gossipq.Mutation{Op: gossipq.OpInsert, Value: -2}, ""},
		{`{"op":"delete","index":0}`, gossipq.Mutation{Op: gossipq.OpDelete}, ""},
		{`{"op":"delete","index":12}`, gossipq.Mutation{Op: gossipq.OpDelete, Index: 12}, ""},
		{`{"op":"update","index":4,"value":9}`, gossipq.Mutation{Op: gossipq.OpUpdate, Index: 4, Value: 9}, ""},
		{`{"op":"delete"}`, gossipq.Mutation{}, "requires an index"},
		{`{"op":"update","value":9}`, gossipq.Mutation{}, "requires an index"},
		{`{"op":"upsert","index":1}`, gossipq.Mutation{}, "bad op"},
		{`{"op":"INSERT","value":1}`, gossipq.Mutation{}, "bad op"},
		{`{}`, gossipq.Mutation{}, "bad op"},
	}
	for _, c := range cases {
		var mj mutationJSON
		if err := json.Unmarshal([]byte(c.body), &mj); err != nil {
			t.Fatalf("%s: %v", c.body, err)
		}
		m, err := mj.mutation()
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err %v, want one mentioning %q", c.body, err, c.wantErr)
			}
			continue
		}
		if err != nil || m != c.want {
			t.Errorf("%s: got %+v, %v; want %+v", c.body, m, err, c.want)
		}
	}
}

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		def  gossipq.ServeMode
		want gossipq.ServeMode
		ok   bool
	}{
		{"", gossipq.ServeLive, gossipq.ServeLive, true},
		{"", gossipq.ServeSnapshot, gossipq.ServeSnapshot, true},
		{"live", gossipq.ServeSnapshot, gossipq.ServeLive, true},
		{"snapshot", gossipq.ServeLive, gossipq.ServeSnapshot, true},
		{"Live", gossipq.ServeLive, gossipq.ServeLive, false},
		{"exact", gossipq.ServeSnapshot, gossipq.ServeSnapshot, false},
	}
	for _, c := range cases {
		got, err := parseMode(c.in, c.def)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseMode(%q, %v) = %v, %v; want %v, ok=%v", c.in, c.def, got, err, c.want, c.ok)
		}
	}
}

func TestErrStatus(t *testing.T) {
	down := &shard.ShardDownError{Shard: 2, Addr: "127.0.0.1:9000"}
	cases := []struct {
		err  error
		want int
	}{
		{down, http.StatusServiceUnavailable},
		{fmt.Errorf("gossipq: shard 2: %w", down), http.StatusServiceUnavailable},
		{errors.New("gossipq: phi must be in [0, 1]"), http.StatusUnprocessableEntity},
		{fmt.Errorf("op 3: %w", errors.New("index out of range")), http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if got := errStatus(c.err); got != c.want {
			t.Errorf("errStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestDecodeJSON(t *testing.T) {
	huge := `{"ops":[` + strings.Repeat(`{"op":"insert","value":1},`, maxBodyBytes/20) + `{"op":"insert","value":1}]}`
	cases := []struct {
		name string
		body string
		ok   bool
		code int
	}{
		{"valid", `{"ops":[{"op":"insert","value":7}]}`, true, http.StatusOK},
		{"empty", ``, false, http.StatusBadRequest},
		{"truncated", `{"ops":[{"op":"insert"`, false, http.StatusBadRequest},
		{"wrong type", `{"ops":{"op":"insert"}}`, false, http.StatusBadRequest},
		{"over the cap", huge, false, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/mutate", strings.NewReader(c.body))
		var req mutateRequest
		if ok := decodeJSON(w, r, &req); ok != c.ok || w.Code != c.code {
			t.Errorf("%s: ok=%v status %d, want ok=%v status %d (body %q)", c.name, ok, w.Code, c.ok, c.code, w.Body.String())
		}
		if !c.ok && !json.Valid(w.Body.Bytes()) {
			t.Errorf("%s: error body %q is not JSON", c.name, w.Body.String())
		}
	}
}

// FuzzRequestBodies feeds arbitrary bytes through the /batch and /mutate
// body parsing — decodeJSON plus the per-entry conversion — which must
// never panic, and must either accept a body or answer 400/413.
func FuzzRequestBodies(f *testing.F) {
	f.Add([]byte(`{"queries":[{"phi":0.5,"eps":0.05},{"phi":0.9,"exact":true,"mode":"live"}]}`))
	f.Add([]byte(`{"ops":[{"op":"insert","value":7},{"op":"update","index":0,"value":9},{"op":"delete","index":1}]}`))
	f.Add([]byte(`{"ops":[{"op":"delete"}],"queries":[{}]}`))
	f.Add([]byte(`{"queries":null,"ops":[null]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"ops":[{"op":"update","index":-9223372036854775808,"value":1e400}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		decode := func(v any) bool {
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
			ok := decodeJSON(w, r, v)
			if !ok && w.Code != http.StatusBadRequest && w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("rejected body with status %d", w.Code)
			}
			return ok
		}
		var b batchRequest
		if decode(&b) {
			if qs, err := b.queries(0.05, gossipq.ServeSnapshot); err == nil && len(qs) != len(b.Queries) {
				t.Fatalf("%d queries from %d entries", len(qs), len(b.Queries))
			}
		}
		var m mutateRequest
		if decode(&m) {
			if ops, err := m.mutations(); err == nil && len(ops) != len(m.Ops) {
				t.Fatalf("%d mutations from %d entries", len(ops), len(m.Ops))
			}
		}
	})
}

// testHandler builds the real serve handler from serve flags over a small
// zipf population (n = 1024 unless args say otherwise), closing the backend
// when the test ends.
func testHandler(t *testing.T, args ...string) http.Handler {
	t.Helper()
	base := []string{"-log-level", "error", "-n", "1024", "-workload", "zipf", "-seed", "7", "-prewarm", "1", "-workers", "1"}
	cfg, err := parseServeConfig(append(base, args...))
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return newHandler(cfg, b)
}

// call sends one request through h and returns the status and raw body.
func call(h http.Handler, method, target, body string) (int, []byte) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// callJSON is call for JSON endpoints: it fails the test unless the status
// is want and the body is a JSON object, which it returns decoded.
func callJSON(t *testing.T, h http.Handler, want int, method, target, body string) map[string]any {
	t.Helper()
	code, raw := call(h, method, target, body)
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s %s: body %q is not a JSON object: %v", method, target, raw, err)
	}
	if code != want {
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, target, code, want, raw)
	}
	return out
}

// shapes are the serve flag sets the handler tests run every case under.
var shapes = []struct {
	name string
	args []string
}{
	{"session", []string{"-summary-eps", "0.05", "-check"}},
	{"sharded", []string{"-shards", "2", "-check"}},
}

// TestHandlerStatusPaths drives every endpoint's success and error statuses
// through the handler `gossipq serve` listens with, in both shapes.
func TestHandlerStatusPaths(t *testing.T) {
	overBatch := `{"queries":[` + strings.Repeat(" ", maxBodyBytes) + `]}`
	overMutate := `{"ops":[` + strings.Repeat(" ", maxBodyBytes) + `]}`
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			h := testHandler(t, sh.args...)
			cases := []struct {
				method, target, body string
				want                 int
			}{
				{"GET", "/quantile?phi=0.9&eps=0.1", "", http.StatusOK},
				{"GET", "/quantile", "", http.StatusBadRequest},
				{"GET", "/quantile?phi=0.5&mode=cached", "", http.StatusBadRequest},
				{"GET", "/quantile?phi=1.5", "", http.StatusUnprocessableEntity},
				{"POST", "/batch", `{"queries":[{"phi":0.5},{"phi":0.9,"eps":0.1}]}`, http.StatusOK},
				{"POST", "/batch", `{"queries":[{"eps":0.1}]}`, http.StatusBadRequest},
				{"POST", "/batch", `{"queries":`, http.StatusBadRequest},
				{"GET", "/batch", "", http.StatusMethodNotAllowed},
				{"POST", "/batch", overBatch, http.StatusRequestEntityTooLarge},
				{"POST", "/batch", `{"queries":[{"phi":0.5},{"phi":-1}]}`, http.StatusUnprocessableEntity},
				{"POST", "/mutate", `{"ops":[{"op":"smash"}]}`, http.StatusBadRequest},
				{"POST", "/mutate", `{"ops":[{"op":"delete"}]}`, http.StatusBadRequest},
				{"GET", "/mutate", "", http.StatusMethodNotAllowed},
				{"POST", "/mutate", overMutate, http.StatusRequestEntityTooLarge},
				{"POST", "/mutate", `{"ops":[{"op":"delete","index":99999}]}`, http.StatusUnprocessableEntity},
				{"GET", "/healthz", "", http.StatusOK},
			}
			for _, c := range cases {
				callJSON(t, h, c.want, c.method, c.target, c.body)
			}
			if code, body := call(h, "GET", "/metrics", ""); code != http.StatusOK || !bytes.Contains(body, []byte("# TYPE gossipq_queries_total counter")) {
				t.Errorf("/metrics: status %d, body %.200q", code, body)
			}
		})
	}
}

// TestHandlerMutateRepair covers /mutate's three repair outcomes: "off"
// without the snapshot tier, "skipped" while the published summary's drift
// stays within budget, and "rebuilt" once a batch pushes it over.
func TestHandlerMutateRepair(t *testing.T) {
	off := callJSON(t, testHandler(t), http.StatusOK, "POST", "/mutate", `{"ops":[{"op":"insert","value":7}]}`)
	if off["repair"] != "off" || off["n"] != 1025.0 || off["generation"] != 1.0 {
		t.Errorf("no snapshot tier: %v", off)
	}
	// n = 1024 at -summary-eps 0.05: a drift budget of 25 ops.
	overBudget := `{"ops":[` + strings.Repeat(`{"op":"update","index":3,"value":5},`, 29) + `{"op":"update","index":3,"value":5}]}`
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			h := testHandler(t, sh.args...)
			small := callJSON(t, h, http.StatusOK, "POST", "/mutate", `{"ops":[{"op":"insert","value":7}]}`)
			if small["repair"] != "skipped" || small["snapshot_version"] != 1.0 || small["snapshot_drift"] != 1.0 {
				t.Errorf("small batch: %v", small)
			}
			big := callJSON(t, h, http.StatusOK, "POST", "/mutate", overBudget)
			if big["repair"] != "rebuilt" || big["snapshot_version"] != 2.0 || big["snapshot_drift"] != 0.0 || big["generation"] != 2.0 {
				t.Errorf("over-budget batch: %v", big)
			}
		})
	}
}

// TestHandlerCheckVerdicts pins the -check oracle verdicts: every answer —
// snapshot, live, and exact — carries "ok":true.
func TestHandlerCheckVerdicts(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			h := testHandler(t, sh.args...)
			targets := []string{"/quantile?phi=0.9", "/quantile?phi=0.25&eps=0.1"}
			if sh.name == "session" {
				targets = append(targets, "/quantile?phi=0.9&mode=live", "/quantile?phi=0.5&exact=true")
			}
			for _, target := range targets {
				if a := callJSON(t, h, http.StatusOK, "GET", target, ""); a["ok"] != true {
					t.Errorf("%s: %v, want ok:true", target, a)
				}
			}
			b := callJSON(t, h, http.StatusOK, "POST", "/batch", `{"queries":[{"phi":0.1},{"phi":0.99,"eps":0.1}]}`)
			for _, a := range b["answers"].([]any) {
				if a.(map[string]any)["ok"] != true {
					t.Errorf("/batch answer %v, want ok:true", a)
				}
			}
		})
	}
}

// TestHandlerShardDown pins the degraded report: a sharded client whose
// shard never answers serves /healthz as a 503 naming the error.
func TestHandlerShardDown(t *testing.T) {
	cfg, err := parseServeConfig([]string{"-log-level", "error", "-shards", "1"})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := gossipq.NewShardedClient(livenet.NewChanTransport(2), 1, nil, 20*time.Millisecond, gossipq.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := wrapSharded(ss, nil, false)
	defer b.Close()
	h := callJSON(t, newHandler(cfg, b), http.StatusServiceUnavailable, "GET", "/healthz", "")
	if h["status"] != "degraded" || !strings.Contains(fmt.Sprint(h["error"]), "shard 0") {
		t.Errorf("degraded report: %v", h)
	}
}

// metricSeries scrapes /metrics and returns its sorted series set: every
// "# TYPE" line plus every sample's name{labels}, leaving out HELP text,
// sample values, and histogram bucket lines.
func metricSeries(t *testing.T, h http.Handler) []string {
	t.Helper()
	code, body := call(h, "GET", "/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP"), strings.Contains(line, "_bucket{"):
		case strings.HasPrefix(line, "# TYPE"):
			out = append(out, line)
		default:
			out = append(out, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	sort.Strings(out)
	return out
}

// TestMetricsSeriesGolden pins the /metrics series set of each serving
// shape against the set recorded from the server before session and
// sharded serving shared one snapshot publisher (testdata/*.series). The
// benchmark's path guards read these names.
func TestMetricsSeriesGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"session", nil},
		{"snapshot", []string{"-summary-eps", "0.05"}},
		{"sharded", []string{"-shards", "2"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			raw, err := os.ReadFile("testdata/metrics_" + c.golden + ".series")
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSpace(string(raw)), "\n")
			got := metricSeries(t, testHandler(t, c.args...))
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("series set changed:\ngot:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// metricValue returns the sample value of the series named exactly series.
func metricValue(t *testing.T, h http.Handler, series string) float64 {
	t.Helper()
	_, body := call(h, "GET", "/metrics", "")
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no series %s in /metrics", series)
	return 0
}

// TestPopulationGaugeFollowsMutations pins gossipq_population to the
// current population size: after one insert it reads n+1, the n /healthz
// reports.
func TestPopulationGaugeFollowsMutations(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			h := testHandler(t, sh.args...)
			callJSON(t, h, http.StatusOK, "POST", "/mutate", `{"ops":[{"op":"insert","value":7}]}`)
			got := metricValue(t, h, "gossipq_population")
			health := callJSON(t, h, http.StatusOK, "GET", "/healthz", "")
			if got != 1025 || health["n"] != got {
				t.Errorf("gossipq_population = %v, /healthz n = %v; want both 1025", got, health["n"])
			}
		})
	}
}

// TestHandlerWithLiveRefresher runs reads, mutations, and scrapes through
// the handler concurrently with a 1 ms TTL refresher (raced in CI): every
// request must succeed, and every checked answer stay within ±εn.
func TestHandlerWithLiveRefresher(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			h := testHandler(t, append(sh.args, "-refresh", "1ms")...)
			var wg sync.WaitGroup
			errs := make(chan string, 64)
			run := func(method, target, body string, check bool) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					code, raw := call(h, method, target, body)
					if code != http.StatusOK || (check && !bytes.Contains(raw, []byte(`"ok":true`))) {
						errs <- fmt.Sprintf("%s %s: %d %s", method, target, code, raw)
						return
					}
				}
			}
			wg.Add(4)
			go run("GET", "/quantile?phi=0.5", "", true)
			go run("POST", "/batch", `{"queries":[{"phi":0.1},{"phi":0.9}]}`, true)
			go run("POST", "/mutate", `{"ops":[{"op":"update","index":1,"value":3},{"op":"insert","value":9}]}`, false)
			go run("GET", "/metrics", "", false)
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		})
	}
}
