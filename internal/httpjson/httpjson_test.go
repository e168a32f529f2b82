package httpjson

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteErrorEnvelope pins the wire bytes of a refusal, with and
// without a retry hint; the message is HTML-escaped, as encoding/json's
// Encoder writes it.
func TestWriteErrorEnvelope(t *testing.T) {
	for _, c := range []struct {
		e          *Error
		body, hint string
	}{
		{BadRequest("missing %q", "tree"), `{"error":{"code":"bad_request","message":"missing \"tree\""}}` + "\n", ""},
		{&Error{Status: http.StatusServiceUnavailable, Code: "draining", Message: "a <b> & c", RetryAfter: 2},
			`{"error":{"code":"draining","message":"a \u003cb\u003e \u0026 c","retryAfterSeconds":2}}` + "\n", "2"},
	} {
		rec := httptest.NewRecorder()
		WriteError(rec, c.e)
		if rec.Code != c.e.Status || rec.Body.String() != c.body {
			t.Fatalf("WriteError(%+v): %d %s, want %d %s", c.e, rec.Code, rec.Body, c.e.Status, c.body)
		}
		if ct, ra := rec.Header().Get("Content-Type"), rec.Header().Get("Retry-After"); ct != "application/json" || ra != c.hint {
			t.Fatalf("WriteError(%+v): Content-Type %q, Retry-After %q", c.e, ct, ra)
		}
	}
}

// TestReadBodyBound pins the one body rule: up to the bound a body is
// read whole, past it the answer is 413 too_large, and DecodeBody turns
// a body that is not the target's JSON into a 400.
func TestReadBodyBound(t *testing.T) {
	read := func(body string, limit int64) ([]byte, *Error) {
		return ReadBody(httptest.NewRecorder(), httptest.NewRequest("POST", "/", strings.NewReader(body)), limit)
	}
	if b, e := read("0123456789", 10); e != nil || string(b) != "0123456789" {
		t.Fatalf("body at the bound: %q, %+v", b, e)
	}
	if _, e := read("0123456789x", 10); e == nil || e.Status != http.StatusRequestEntityTooLarge ||
		e.Code != "too_large" || e.Message != "request body exceeds 10 bytes" {
		t.Fatalf("body past the bound: %+v, want 413 too_large", e)
	}
	var v struct{ N int }
	decode := func(body string) *Error {
		return DecodeBody(httptest.NewRecorder(), httptest.NewRequest("POST", "/", strings.NewReader(body)), &v, 64)
	}
	if e := decode(`{"N":7}`); e != nil || v.N != 7 {
		t.Fatalf("DecodeBody: %+v, N=%d", e, v.N)
	}
	if e := decode(`{"N":`); e == nil || e.Status != http.StatusBadRequest || !strings.HasPrefix(e.Message, "request body: ") {
		t.Fatalf("DecodeBody of malformed JSON: %+v, want a 400", e)
	}
}
