package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"
)

// TestDecodeHardening exercises the request-body hardening on every
// endpoint: malformed, empty, mistyped, trailing-garbage, and oversized
// bodies must come back as structured {"error": ...} JSON with the right
// status — never a bare 500 or a hung connection.
func TestDecodeHardening(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 1 << 10
	_, hs := newTestServer(t, cfg)

	big := `{"m": [[` + strings.Repeat("1,", 2000) + `1]]}`
	cases := []struct {
		name    string
		path    string
		body    string
		status  int
		errLike string
	}{
		{"empty body", "/v1/matmul", "", http.StatusBadRequest, "empty request body"},
		{"truncated json", "/v1/matmul", `{"m": [[1,`, http.StatusBadRequest, "malformed JSON"},
		{"wrong type", "/v1/matmul", `{"m": "not a matrix"}`, http.StatusBadRequest, "malformed JSON"},
		{"trailing data", "/v1/matmul", `{"m": [[1]], "x": [[1]]} {"again": true}`, http.StatusBadRequest, "trailing data"},
		{"oversized", "/v1/matmul", big, http.StatusRequestEntityTooLarge, "exceeds"},
		{"empty conv2d", "/v1/conv2d", "", http.StatusBadRequest, "empty request body"},
		{"trailing conv2d", "/v1/conv2d", `{} []`, http.StatusBadRequest, "trailing data"},
		{"empty infer", "/v1/infer", "", http.StatusBadRequest, "empty request body"},
		{"oversized infer", "/v1/infer", big, http.StatusRequestEntityTooLarge, "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var er errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatalf("error body is not structured JSON: %v", err)
			}
			if !strings.Contains(er.Error, tc.errLike) {
				t.Fatalf("error %q does not mention %q", er.Error, tc.errLike)
			}
		})
	}
}

// TestRequestIdentityHeaders checks the cluster-facing identity contract:
// X-Flumen-Node always names the serving instance, and X-Request-ID is
// echoed when the caller supplies one, minted when it does not — on
// successes and on errors alike.
func TestRequestIdentityHeaders(t *testing.T) {
	cfg := testConfig()
	cfg.NodeID = "node-under-test"
	s, hs := newTestServer(t, cfg)
	if s.NodeID() != "node-under-test" {
		t.Fatalf("NodeID() = %q, want node-under-test", s.NodeID())
	}

	body, _ := json.Marshal(MatMulRequest{M: [][]float64{{1, 0}, {0, 1}}, X: [][]float64{{1}, {2}}})

	// Caller-supplied ID is echoed verbatim.
	req, _ := http.NewRequest("POST", hs.URL+"/v1/matmul", bytes.NewReader(body))
	req.Header.Set(HeaderRequestID, "caller-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(HeaderRequestID); got != "caller-chose-this" {
		t.Errorf("%s = %q, want caller-chose-this", HeaderRequestID, got)
	}
	if got := resp.Header.Get(HeaderNode); got != "node-under-test" {
		t.Errorf("%s = %q, want node-under-test", HeaderNode, got)
	}

	// No ID supplied: the server mints distinct ones.
	ids := map[string]bool{}
	for i := 0; i < 2; i++ {
		resp, err := http.Post(hs.URL+"/v1/matmul", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get(HeaderRequestID)
		if id == "" {
			t.Fatal("server did not mint a request ID")
		}
		ids[id] = true
	}
	if len(ids) != 2 {
		t.Errorf("minted IDs are not unique: %v", ids)
	}

	// Identity survives the error path too.
	req, _ = http.NewRequest("POST", hs.URL+"/v1/matmul", strings.NewReader("{"))
	req.Header.Set(HeaderRequestID, "bad-request-id")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderRequestID); got != "bad-request-id" {
		t.Errorf("error path dropped %s: got %q", HeaderRequestID, got)
	}
	if got := resp.Header.Get(HeaderNode); got != "node-under-test" {
		t.Errorf("error path dropped %s: got %q", HeaderNode, got)
	}
}

// TestBodyLimitIgnoresContentLength: the declared length only sizes the read
// buffer. A chunked body that declares nothing and a body longer than it
// declared are both cut off at MaxBodyBytes with a 413.
func TestBodyLimitIgnoresContentLength(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 1 << 10
	s, hs := newTestServer(t, cfg)
	big := `{"m": [[` + strings.Repeat("1,", 2000) + `1]]}`

	// struct{io.Reader} hides the reader's length from net/http, which then
	// sends the body chunked.
	req, err := http.NewRequest("POST", hs.URL+"/v1/matmul", struct{ io.Reader }{strings.NewReader(big)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked body without Content-Length: status %d, want 413", resp.StatusCode)
	}

	// net/http's server would truncate the body at the declared length, so
	// the understating request goes to the handler directly.
	for _, path := range []string{"/v1/matmul", "/v1/conv2d", "/v1/infer"} {
		r := httptest.NewRequest("POST", path, strings.NewReader(big))
		r.ContentLength = 16
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, r)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with an understated Content-Length: status %d, want 413", path, rec.Code)
		}
	}

	// Nor does an overstating one buy memory: headers that declare the whole
	// limit and a body that never arrives reserve at most a pooled buffer.
	r := httptest.NewRequest("POST", "/v1/matmul", strings.NewReader(""))
	r.ContentLength = 32 << 20
	var buf bytes.Buffer
	if err := ReadBody(httptest.NewRecorder(), r, 32<<20, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Cap() > 2*maxPooledBody {
		t.Errorf("Content-Length %d with no body reserved %d bytes, want about %d", r.ContentLength, buf.Cap(), maxPooledBody)
	}
}

// TestLongTimeoutClampsToMax: a timeout_ms beyond MaxTimeout gets
// MaxTimeout, however large. A product in time.Duration overflows from
// about 9.2e12 ms and used to wrap negative, so the request timed out at
// once. The bodies are raw JSON because the decoder refuses 1e13 for an
// integer field.
func TestLongTimeoutClampsToMax(t *testing.T) {
	cfg := testConfig()
	_, hs := newTestServer(t, cfg)
	for _, ms := range []string{
		"10000000000000",
		fmt.Sprint(int64(math.MaxInt64)),
		fmt.Sprint(cfg.MaxTimeout.Milliseconds() + 1),
	} {
		body := `{"m":[[1,0],[0,1]],"x":[[1],[2]],"timeout_ms":` + ms + `}`
		resp, err := http.Post(hs.URL+"/v1/matmul", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("timeout_ms %s: status %d (%s), want 200", ms, resp.StatusCode, b)
		}
	}
}

// TestTimedOutJobKeepsItsOperands pins who owns what after a decode. The
// body's bytes go back to the pool when the scan returns; the decoded floats
// belong to the job, which can outlive its handler: await answers 504 on a
// deadline while the job is still queued or running. So later requests — on
// the same connection, through the same byte pool — must not be able to
// touch the late job's operands. Run under -race.
func TestTimedOutJobKeepsItsOperands(t *testing.T) {
	cfg := testConfig()
	s, hs := newTestServer(t, cfg)
	ref, err := NewReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				reused++
			}
		},
	})
	post := func(body MatMulRequest) (int, MatMulResponse) {
		t.Helper()
		b, _ := json.Marshal(body)
		req, err := http.NewRequestWithContext(ctx, "POST", hs.URL+"/v1/matmul", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out MatMulResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, out
	}

	rng := rand.New(rand.NewSource(22))
	m, x := testMatrix(rng, 16, 16), testMatrix(rng, 16, 3)
	release := stallExecutor(t, s)
	if status, _ := post(MatMulRequest{M: m, X: x, TimeoutMS: 50}); status != http.StatusGatewayTimeout {
		t.Fatalf("request behind a stalled executor: status %d, want 504", status)
	}
	// The handler is gone; its job still sits in the queue. Take it, as the
	// executor would once it gets there.
	var late *job
	select {
	case late = <-s.sched.queue:
	case <-time.After(5 * time.Second):
		t.Fatal("the timed-out request left no job in the queue")
	}
	release()

	for i := 0; i < 8; i++ {
		om, ox := testMatrix(rng, 16, 16), testMatrix(rng, 16, 3)
		status, out := post(MatMulRequest{M: om, X: ox})
		if status != http.StatusOK {
			t.Fatalf("request %d after the timeout: status %d", i, status)
		}
		want, err := ref.MatMul(om, ox)
		if err != nil {
			t.Fatal(err)
		}
		bitwise2D(t, out.C, want, fmt.Sprintf("request %d after the timeout", i))
	}
	if reused < 8 {
		t.Errorf("%d of 9 requests reused the connection, want 8", reused)
	}

	// The late job runs now, from operands decoded nine bodies ago.
	late.ctx, late.done = context.Background(), make(chan jobResult, 1)
	if err := s.sched.submit(late); err != nil {
		t.Fatal(err)
	}
	res := <-late.done
	if res.err != nil {
		t.Fatal(res.err)
	}
	want, err := ref.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	bitwise2D(t, res.matmul, want, "late job")
}
