package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/units"
)

// Every response body is a struct (never a map), so field order is
// fixed by declaration and encoding/json's shortest-round-trip float
// formatting makes the bytes identical run to run — the property the
// golden tests pin. Bodies are written compact with a trailing
// newline.

// Size is a byte count that unmarshals from either a JSON number
// (8388608) or a human-readable string ("8M", "512kib"), so HTTP
// payloads are as forgiving as the CLI flags.
type Size units.Bytes

// UnmarshalJSON accepts a non-negative integer or a units.ParseBytes
// string.
func (s *Size) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var str string
		if err := json.Unmarshal(b, &str); err != nil {
			return err
		}
		v, err := units.ParseBytes(str)
		if err != nil {
			return err
		}
		*s = Size(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("size must be a byte count or a string like \"8M\": %w", err)
	}
	if n < 0 {
		return fmt.Errorf("size must be non-negative, got %d", n)
	}
	*s = Size(n)
	return nil
}

// MarshalJSON renders the size as a plain byte count.
func (s Size) MarshalJSON() ([]byte, error) {
	return json.Marshal(int64(s))
}

// BandwidthRequest is one bandwidth query.
type BandwidthRequest struct {
	// Machine is the served machine key: "8400", "t3d", "t3e".
	Machine string `json:"machine"`
	// Pattern selects the benchmark family: "load" or "transfer".
	Pattern string `json:"pattern"`
	// Mode selects the transfer direction for "transfer" queries:
	// "fetch" (default), "deposit", or "naive-fetch". Ignored for
	// "load".
	Mode string `json:"mode,omitempty"`
	// WS is the working set, as bytes or a "512k"-style string.
	WS Size `json:"ws"`
	// Stride is the access stride in words.
	Stride int `json:"stride"`
}

// BandwidthResponse is the answer to one bandwidth query.
type BandwidthResponse struct {
	Machine string  `json:"machine"`
	Pattern string  `json:"pattern"`
	Mode    string  `json:"mode,omitempty"`
	WSBytes int64   `json:"ws_bytes"`
	Stride  int     `json:"stride"`
	BWMBps  float64 `json:"bw_mbps"`
	// Confidence grades the answer: "exact" (a stored simulated grid
	// cell), "interpolated" (between stored cells in one analytic
	// regime), or "analytic" (the closed-form model; no measurement
	// backs it).
	Confidence string `json:"confidence"`
	// CalHash identifies the machine calibration the answer was
	// computed under (hex).
	CalHash string `json:"cal_hash"`
}

// BatchRequest asks N bandwidth queries in one round trip.
type BatchRequest struct {
	Queries []BandwidthRequest `json:"queries"`
}

// BatchResult is one element of a batch answer: exactly one of Result
// and Error is set, so one malformed query never poisons its
// neighbors.
type BatchResult struct {
	Result *BandwidthResponse `json:"result,omitempty"`
	Error  *ErrorDetail       `json:"error,omitempty"`
}

// BatchResponse answers a batch, results in query order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// PlanRequest asks for the cheapest implementation of a
// redistribution moving Bytes per processor with the given stride on
// the scattered side.
type PlanRequest struct {
	Machine string `json:"machine"`
	Bytes   Size   `json:"bytes"`
	Stride  int    `json:"stride"`
}

// PlanStep is one copy transfer inside a strategy.
type PlanStep struct {
	Locality    string `json:"locality"`
	Mode        string `json:"mode,omitempty"`
	LoadStride  int    `json:"load_stride"`
	StoreStride int    `json:"store_stride"`
	Blocked     bool   `json:"blocked,omitempty"`
}

// PlanStrategy is one candidate implementation with its estimated
// cost.
type PlanStrategy struct {
	Name       string     `json:"name"`
	TimeUS     float64    `json:"time_us"`
	BWMBps     float64    `json:"bw_mbps"`
	Confidence string     `json:"confidence"`
	Steps      []PlanStep `json:"steps"`
}

// PlanResponse lists the feasible strategies, fastest first.
type PlanResponse struct {
	Machine    string         `json:"machine"`
	Bytes      int64          `json:"bytes"`
	Stride     int            `json:"stride"`
	CalHash    string         `json:"cal_hash"`
	Best       string         `json:"best"`
	Strategies []PlanStrategy `json:"strategies"`
}

// SurfaceInfo describes one stored artifact in /v1/surfaces.
type SurfaceInfo struct {
	// Key addresses the artifact at /v1/surfaces/{key}; it is the
	// artifact's stable store file name.
	Key       string `json:"key"`
	Machine   string `json:"machine"`
	Pattern   string `json:"pattern"`
	Cells     int    `json:"cells"`
	Simulated int    `json:"simulated"`
	CalHash   string `json:"cal_hash"`
}

// SurfacesResponse enumerates the store.
type SurfacesResponse struct {
	Surfaces []SurfaceInfo `json:"surfaces"`
}

// SurfaceSliceResponse is one artifact's data. Every artifact is a
// surface; a fixed-working-set curve comes back as a one-row grid.
type SurfaceSliceResponse struct {
	Key         string      `json:"key"`
	Machine     string      `json:"machine"`
	Pattern     string      `json:"pattern"`
	Title       string      `json:"title"`
	CalHash     string      `json:"cal_hash"`
	Strides     []int       `json:"strides"`
	WorkingSets []int64     `json:"working_sets,omitempty"`
	Grid        [][]float64 `json:"bw_mbps_grid,omitempty"`
	Sources     [][]string  `json:"sources,omitempty"`
}

// ComponentInfo grades one planner characterization component.
type ComponentInfo struct {
	Name       string `json:"name"`
	Confidence string `json:"confidence"`
}

// MachineInfo describes one served machine.
type MachineInfo struct {
	Name      string `json:"name"`
	Display   string `json:"display"`
	CalHash   string `json:"cal_hash"`
	Artifacts int    `json:"artifacts"`
	// Planner lists the characterization components backing /v1/plan
	// with their provenance, sorted by name.
	Planner []ComponentInfo `json:"planner"`
}

// MachinesResponse lists the served machines, sorted by name.
type MachinesResponse struct {
	Machines []MachineInfo `json:"machines"`
}

// HealthResponse answers /healthz.
type HealthResponse struct {
	Status   string `json:"status"`
	Machines int    `json:"machines"`
}

// Error codes carried in structured error bodies.
const (
	CodeBadRequest     = "bad_request"
	CodeUnknownMachine = "unknown_machine"
	CodeUnknownKey     = "unknown_key"
	CodeUnsupported    = "unsupported_mode"
	CodeInternal       = "internal"
)

// ErrorDetail is the structured error payload.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorBody wraps an error for a top-level error response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// writeJSON writes v compact with a trailing newline and the given
// status. Marshal failures degrade to a plain 500; they indicate a
// programming error, not bad input.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding failed"}}`, http.StatusInternalServerError)
		return http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n'))
	return status
}

// writeError writes a structured error body.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) int {
	return writeJSON(w, status, ErrorBody{Error: ErrorDetail{
		Code: code, Message: fmt.Sprintf(format, args...),
	}})
}
