// Package httpjson is how wavemind's HTTP handlers read a request body
// and answer in JSON: the service API (internal/server) and the worker
// lease protocol (internal/dispatch) share one bounded body reader, whose
// overflow is always 413 too_large, and one structured-error envelope,
// {"error":{"code":...,"message":...}}.
package httpjson

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Error is a structured request failure: it renders as
// {"error":{"code":...,"message":...}} with Status as the HTTP status.
// A refusal the client should retry sets RetryAfter (seconds), which
// adds a Retry-After header and error.retryAfterSeconds.
type Error struct {
	Status     int
	Code       string
	Message    string
	RetryAfter int
}

// BadRequest is the 400 bad_request refusal with a formatted message.
func BadRequest(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Code: "bad_request", Message: fmt.Sprintf(format, args...)}
}

// ReadBody reads r's whole body, at most limit bytes. A longer body is
// the 413 too_large refusal; any other read failure is a 400.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, *Error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &Error{Status: http.StatusRequestEntityTooLarge, Code: "too_large",
				Message: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
		}
		return nil, BadRequest("reading request body: %v", err)
	}
	return body, nil
}

// DecodeBody reads r's body as ReadBody does and unmarshals it into dst:
// one read and one json.Unmarshal, and a body that is not dst's JSON is
// a 400.
func DecodeBody(w http.ResponseWriter, r *http.Request, dst any, limit int64) *Error {
	body, e := ReadBody(w, r, limit)
	if e != nil {
		return e
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return BadRequest("request body: %v", err)
	}
	return nil
}

// Write answers status with v as its JSON body.
func Write(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers e's status with its error envelope.
func WriteError(w http.ResponseWriter, e *Error) {
	body := map[string]any{"code": e.Code, "message": e.Message}
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
		body["retryAfterSeconds"] = e.RetryAfter
	}
	Write(w, e.Status, map[string]any{"error": body})
}
