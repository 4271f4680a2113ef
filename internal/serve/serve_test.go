package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/units"
)

// The warm-fixture grid: small enough to simulate in well under a
// second, shaped so the tests can hit all three confidence tiers.
var (
	warmStrides = []int{1, 4, 16}
	warmWSS     = []units.Bytes{16 * units.KB, 64 * units.KB}
)

// warmDir simulates one small T3E load surface into a fresh store
// directory and returns it. The machine is the same NewT3E(4) the
// server's shard describes, so the calibration hashes line up and the
// stored cells serve exact answers.
func warmDir(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	p := sweep.Seq(machine.NewT3E(4))
	p.SetStore(st)
	bench.LoadSurface(p, 0, warmStrides, warmWSS)
	return dir
}

// newServer builds a Server over dir.
func newServer(t testing.TB, dir string, workers int) *Server {
	t.Helper()
	s, err := New(Config{StoreDir: dir, Workers: workers})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	return s
}

// do fires one request at the handler and returns the recorder.
func do(t testing.TB, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// post fires a bandwidth query and decodes the response.
func post(t testing.TB, s *Server, path, body string) (int, []byte) {
	t.Helper()
	w := do(t, s, http.MethodPost, path, body)
	return w.Code, w.Body.Bytes()
}

func decodeBW(t testing.TB, b []byte) BandwidthResponse {
	t.Helper()
	var r BandwidthResponse
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatalf("decode %s: %v", b, err)
	}
	return r
}

func decodeErr(t testing.TB, b []byte) ErrorBody {
	t.Helper()
	var e ErrorBody
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatalf("decode %s: %v", b, err)
	}
	return e
}

func TestConfidenceTiers(t *testing.T) {
	s := newServer(t, warmDir(t), 0)
	cases := []struct {
		name string
		body string
		want string
	}{
		// A stored simulated grid cell.
		{"exact", `{"machine":"t3e","pattern":"load","ws":"16k","stride":4}`, "exact"},
		// Exact working set, stride between stored cells 4 and 16.
		{"interpolated", `{"machine":"t3e","pattern":"load","ws":"16k","stride":8}`, "interpolated"},
		// Far above the stored hull: degrades to the model, never 500.
		{"out-of-hull", `{"machine":"t3e","pattern":"load","ws":"512M","stride":4}`, "analytic"},
		// Nothing stored for transfers at all.
		{"transfer-analytic", `{"machine":"t3e","pattern":"transfer","mode":"fetch","ws":"8M","stride":16}`, "analytic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := post(t, s, "/v1/bandwidth", c.body)
			if code != http.StatusOK {
				t.Fatalf("status %d, body %s", code, body)
			}
			r := decodeBW(t, body)
			if r.Confidence != c.want {
				t.Fatalf("confidence = %q, want %q (body %s)", r.Confidence, c.want, body)
			}
			if r.BWMBps <= 0 {
				t.Fatalf("bw_mbps = %v, want > 0", r.BWMBps)
			}
		})
	}
}

func TestExactMatchesStoredCell(t *testing.T) {
	dir := warmDir(t)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cal := machine.NewT3E(4).Calibration()
	surf, ok := st.GetSurface(bench.LoadSurfaceKey(cal, 0, warmStrides, warmWSS))
	if !ok {
		t.Fatal("warm surface missing from store")
	}
	want := surf.BW[0][1].MBps() // ws=16k, stride=4

	s := newServer(t, dir, 0)
	code, body := post(t, s, "/v1/bandwidth", `{"machine":"t3e","pattern":"load","ws":16384,"stride":4}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	r := decodeBW(t, body)
	if r.BWMBps != want {
		t.Fatalf("bw_mbps = %v, want stored cell %v", r.BWMBps, want)
	}
	if r.Confidence != "exact" {
		t.Fatalf("confidence = %q, want exact", r.Confidence)
	}
}

func TestHandlerErrors(t *testing.T) {
	s := newServer(t, t.TempDir(), 0)
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"malformed-json", "POST", "/v1/bandwidth", `{"machine":`, http.StatusBadRequest, CodeBadRequest},
		{"unknown-machine", "POST", "/v1/bandwidth", `{"machine":"cm5","pattern":"load","ws":"4k","stride":1}`, http.StatusNotFound, CodeUnknownMachine},
		{"bad-pattern", "POST", "/v1/bandwidth", `{"machine":"t3e","pattern":"scan","ws":"4k","stride":1}`, http.StatusBadRequest, CodeBadRequest},
		{"bad-mode", "POST", "/v1/bandwidth", `{"machine":"t3e","pattern":"transfer","mode":"push","ws":"4k","stride":1}`, http.StatusBadRequest, CodeBadRequest},
		{"zero-ws", "POST", "/v1/bandwidth", `{"machine":"t3e","pattern":"load","ws":0,"stride":1}`, http.StatusBadRequest, CodeBadRequest},
		{"negative-ws", "POST", "/v1/bandwidth", `{"machine":"t3e","pattern":"load","ws":-4096,"stride":1}`, http.StatusBadRequest, CodeBadRequest},
		{"bad-ws-string", "POST", "/v1/bandwidth", `{"machine":"t3e","pattern":"load","ws":"lots","stride":1}`, http.StatusBadRequest, CodeBadRequest},
		{"zero-stride", "POST", "/v1/bandwidth", `{"machine":"t3e","pattern":"load","ws":"4k","stride":0}`, http.StatusBadRequest, CodeBadRequest},
		{"unsupported-deposit", "POST", "/v1/bandwidth", `{"machine":"8400","pattern":"transfer","mode":"deposit","ws":"4k","stride":1}`, http.StatusUnprocessableEntity, CodeUnsupported},
		{"plan-unknown-machine", "POST", "/v1/plan", `{"machine":"cm5","bytes":"1M","stride":2}`, http.StatusNotFound, CodeUnknownMachine},
		{"plan-zero-bytes", "POST", "/v1/plan", `{"machine":"t3e","bytes":0,"stride":2}`, http.StatusBadRequest, CodeBadRequest},
		{"unknown-surface-key", "GET", "/v1/surfaces/nope", "", http.StatusNotFound, CodeUnknownKey},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := do(t, s, c.method, c.path, c.body)
			if w.Code != c.wantCode {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, c.wantCode, w.Body.String())
			}
			if e := decodeErr(t, w.Body.Bytes()); e.Error.Code != c.wantErr {
				t.Fatalf("error code = %q, want %q", e.Error.Code, c.wantErr)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newServer(t, t.TempDir(), 0)
	if w := do(t, s, http.MethodGet, "/v1/bandwidth", ""); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/bandwidth = %d, want 405", w.Code)
	}
}

func TestBatchPartialFailure(t *testing.T) {
	s := newServer(t, warmDir(t), 0)
	body := `{"queries":[
		{"machine":"t3e","pattern":"load","ws":"16k","stride":4},
		{"machine":"cm5","pattern":"load","ws":"4k","stride":1},
		{"machine":"t3e","pattern":"load","ws":"512M","stride":1}
	]}`
	code, b := post(t, s, "/v1/bandwidth/batch", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var resp BatchResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Result == nil || resp.Results[0].Result.Confidence != "exact" {
		t.Fatalf("result[0] = %+v, want exact result", resp.Results[0])
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != CodeUnknownMachine {
		t.Fatalf("result[1] = %+v, want unknown_machine error", resp.Results[1])
	}
	if resp.Results[2].Result == nil || resp.Results[2].Result.Confidence != "analytic" {
		t.Fatalf("result[2] = %+v, want analytic result", resp.Results[2])
	}
}

// TestBatchDeterministicAcrossWorkers pins the byte-stability
// contract: the same batch against servers of width 1, 4, and 16
// produces identical bytes, and a second server over the same store
// reproduces them.
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	dir := warmDir(t)
	var queries []string
	for i := 0; i < 64; i++ {
		ws := []string{"4k", "16k", "64k", "1M"}[i%4]
		stride := []int{1, 2, 4, 8, 16, 32, 64, 128}[i%8]
		m := []string{"t3e", "t3d", "8400"}[i%3]
		queries = append(queries,
			`{"machine":"`+m+`","pattern":"load","ws":"`+ws+`","stride":`+itoa(stride)+`}`)
	}
	body := `{"queries":[` + strings.Join(queries, ",") + `]}`

	var first []byte
	for _, workers := range []int{1, 4, 16} {
		s := newServer(t, dir, workers)
		for run := 0; run < 2; run++ {
			code, b := post(t, s, "/v1/bandwidth/batch", body)
			if code != http.StatusOK {
				t.Fatalf("workers=%d status %d", workers, code)
			}
			if first == nil {
				first = b
				continue
			}
			if !bytes.Equal(first, b) {
				t.Fatalf("workers=%d run=%d: response bytes differ", workers, run)
			}
		}
	}
}

func itoa(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestPlanSortedAndConfident(t *testing.T) {
	s := newServer(t, t.TempDir(), 0)
	code, b := post(t, s, "/v1/plan", `{"machine":"t3d","bytes":"2M","stride":32}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var resp PlanResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Strategies) == 0 {
		t.Fatal("no strategies")
	}
	if resp.Best != resp.Strategies[0].Name {
		t.Fatalf("best = %q, strategies[0] = %q", resp.Best, resp.Strategies[0].Name)
	}
	for i := 1; i < len(resp.Strategies); i++ {
		if resp.Strategies[i].TimeUS < resp.Strategies[i-1].TimeUS {
			t.Fatalf("strategies not sorted by time at %d", i)
		}
	}
	for _, st := range resp.Strategies {
		if st.Confidence != "analytic" {
			t.Fatalf("strategy %q confidence = %q, want analytic with an empty store", st.Name, st.Confidence)
		}
		if len(st.Steps) == 0 {
			t.Fatalf("strategy %q has no steps", st.Name)
		}
	}
}

func TestPlanDepositUnavailableOn8400(t *testing.T) {
	s := newServer(t, t.TempDir(), 0)
	code, b := post(t, s, "/v1/plan", `{"machine":"8400","bytes":"1M","stride":16}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, b)
	}
	var resp PlanResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	for _, st := range resp.Strategies {
		if strings.Contains(st.Name, "deposit") {
			t.Fatalf("8400 plan offers %q; deposits are unsupported there", st.Name)
		}
	}
}

func TestSurfacesEnumerationAndSlice(t *testing.T) {
	s := newServer(t, warmDir(t), 0)
	w := do(t, s, http.MethodGet, "/v1/surfaces", "")
	if w.Code != http.StatusOK {
		t.Fatalf("surfaces status %d", w.Code)
	}
	var list SurfacesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Surfaces) != 1 {
		t.Fatalf("got %d surfaces, want 1", len(list.Surfaces))
	}
	info := list.Surfaces[0]
	if info.Machine != "Cray T3E" || info.Pattern != "load@0" {
		t.Fatalf("unexpected surface info %+v", info)
	}
	if info.Cells != len(warmStrides)*len(warmWSS) || info.Simulated != info.Cells {
		t.Fatalf("cells = %d simulated = %d, want %d complete", info.Cells, info.Simulated, len(warmStrides)*len(warmWSS))
	}

	w = do(t, s, http.MethodGet, "/v1/surfaces/"+info.Key, "")
	if w.Code != http.StatusOK {
		t.Fatalf("slice status %d: %s", w.Code, w.Body.String())
	}
	var slice SurfaceSliceResponse
	if err := json.Unmarshal(w.Body.Bytes(), &slice); err != nil {
		t.Fatal(err)
	}
	if len(slice.Grid) != len(warmWSS) || len(slice.Grid[0]) != len(warmStrides) {
		t.Fatalf("grid shape %dx%d, want %dx%d", len(slice.Grid), len(slice.Grid[0]), len(warmWSS), len(warmStrides))
	}
	for _, row := range slice.Sources {
		for _, src := range row {
			if src != "simulated" {
				t.Fatalf("source %q, want simulated", src)
			}
		}
	}
}

func TestMachinesEndpoint(t *testing.T) {
	s := newServer(t, warmDir(t), 0)
	w := do(t, s, http.MethodGet, "/v1/machines", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var resp MachinesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Machines) != 3 {
		t.Fatalf("got %d machines, want 3", len(resp.Machines))
	}
	for i, want := range []string{"8400", "t3d", "t3e"} {
		if resp.Machines[i].Name != want {
			t.Fatalf("machines[%d] = %q, want %q", i, resp.Machines[i].Name, want)
		}
	}
	var t3e MachineInfo
	for _, m := range resp.Machines {
		if m.Name == "t3e" {
			t3e = m
		}
	}
	if t3e.Artifacts != 1 {
		t.Fatalf("t3e artifacts = %d, want 1", t3e.Artifacts)
	}
	if len(t3e.Planner) == 0 {
		t.Fatal("t3e planner provenance empty")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newServer(t, t.TempDir(), 0)
	w := do(t, s, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Machines != 3 {
		t.Fatalf("healthz = %+v", h)
	}

	post(t, s, "/v1/bandwidth", `{"machine":"t3e","pattern":"load","ws":"4k","stride":1}`)
	w = do(t, s, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	out := w.Body.String()
	for _, want := range []string{
		"serve.bandwidth.requests 1",
		"serve.healthz.requests 1",
		"serve.bandwidth.latency_us ",
		"store.t3e.misses ",
		"store.catalog.mem_hits ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestSizeUnmarshal(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{`"8M"`, 8 << 20, true},
		{`"512kib"`, 512 << 10, true},
		{`1048576`, 1 << 20, true},
		{`0`, 0, true},
		{`-1`, 0, false},
		{`1.5`, 0, false},
		{`"8Q"`, 0, false},
		{`true`, 0, false},
	}
	for _, c := range cases {
		var s Size
		err := json.Unmarshal([]byte(c.in), &s)
		if c.ok != (err == nil) {
			t.Errorf("Size(%s): err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && int64(s) != c.want {
			t.Errorf("Size(%s) = %d, want %d", c.in, int64(s), c.want)
		}
	}
}
