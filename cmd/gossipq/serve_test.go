package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gossipq"
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
