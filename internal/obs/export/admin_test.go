package export

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestJSONRefusesUnencodable: a value encoding/json cannot render
// answers 500 with the uniform error shape, never 200 with an empty
// body.
func TestJSONRefusesUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	JSON(rec, struct{ Weight float64 }{math.NaN()})
	var e struct {
		Error string `json:"error"`
	}
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Fatalf("JSON(NaN) = %d %q, want 500 with an error body", rec.Code, rec.Body)
	}
}

// TestPropertiesHandlerAnswers pins the one lifecycle handler's
// answers: an operation the config leaves nil is 405, an install is 201
// "installed" (its error 400), a remove "removed" (its error 404, a
// missing name 400), and a StatusError either returns answers its own
// code.
func TestPropertiesHandlerAnswers(t *testing.T) {
	do := func(pc *PropertiesConfig, method, target, body string) (int, string) {
		rec := httptest.NewRecorder()
		PropertiesHandler(pc)(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	for _, pc := range []*PropertiesConfig{nil, {}} {
		for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodDelete, http.MethodPut} {
			if code, body := do(pc, method, "/properties?name=p", "src"); code != http.StatusMethodNotAllowed {
				t.Errorf("%s on %+v = %d %q, want 405", method, pc, code, body)
			}
		}
	}

	pc := &PropertiesConfig{
		List: func() any { return []string{"p"} },
		Install: func(src, tenant string) (any, error) {
			if src == "busy" {
				return nil, &StatusError{Code: http.StatusConflict, Msg: "in dispute"}
			}
			if src != "src" || tenant != "t" {
				return nil, errors.New("parse error")
			}
			return nil, nil
		},
		Remove: func(name string) (any, error) {
			if name == "busy" {
				return nil, &StatusError{Code: http.StatusServiceUnavailable, Msg: "unknown state"}
			}
			if name != "p" {
				return nil, errors.New("unknown property")
			}
			return nil, nil
		},
	}
	for _, c := range []struct {
		method, target, body string
		code                 int
		answer               string
	}{
		{http.MethodGet, "/properties", "", http.StatusOK, "[\n  \"p\"\n]\n"},
		{http.MethodPost, "/properties?tenant=t", "src", http.StatusCreated, "installed\n"},
		{http.MethodPost, "/properties", "bad", http.StatusBadRequest, ""},
		{http.MethodDelete, "/properties?name=p", "", http.StatusOK, "removed\n"},
		{http.MethodDelete, "/properties?name=q", "", http.StatusNotFound, ""},
		{http.MethodDelete, "/properties", "", http.StatusBadRequest, ""},
		{http.MethodPost, "/properties", "busy", http.StatusConflict, ""},
		{http.MethodDelete, "/properties?name=busy", "", http.StatusServiceUnavailable, ""},
	} {
		code, body := do(pc, c.method, c.target, c.body)
		if code != c.code || (c.answer != "" && body != c.answer) {
			t.Errorf("%s %s = %d %q, want %d %q", c.method, c.target, code, body, c.code, c.answer)
		}
	}
}

// TestPropertiesHandlerAnswersTheDocument: an install or remove that
// returns an answer is served that answer as JSON, 201 and 200, where a
// nil answer is the plain "installed" and "removed".
func TestPropertiesHandlerAnswersTheDocument(t *testing.T) {
	doc := map[string]int{"epoch": 7}
	h := PropertiesHandler(&PropertiesConfig{
		Install: func(string, string) (any, error) { return doc, nil },
		Remove:  func(string) (any, error) { return doc, nil },
	})
	for method, code := range map[string]int{http.MethodPost: http.StatusCreated, http.MethodDelete: http.StatusOK} {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(method, "/properties?name=p", strings.NewReader("src")))
		var got map[string]int
		if rec.Code != code || rec.Header().Get("Content-Type") != "application/json" ||
			json.Unmarshal(rec.Body.Bytes(), &got) != nil || got["epoch"] != 7 {
			t.Errorf("%s = %d %q (%s), want %d and the document", method, rec.Code, rec.Body, rec.Header().Get("Content-Type"), code)
		}
	}
}
