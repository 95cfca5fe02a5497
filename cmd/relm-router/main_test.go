package main

import (
	"reflect"
	"testing"

	"relm/internal/router"
)

// TestParseBackends: -backends takes comma-separated name=url pairs,
// blanks around and between them ignored, and refuses a pair missing its
// name, its URL or its '=', and a list that names no backend.
func TestParseBackends(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want []router.Backend
	}{
		{"a=http://127.0.0.1:8080", []router.Backend{{Name: "a", URL: "http://127.0.0.1:8080"}}},
		{" a=http://h:1 , b=http://h:2,", []router.Backend{{Name: "a", URL: "http://h:1"}, {Name: "b", URL: "http://h:2"}}},
		{"a=http://h:1?x=y", []router.Backend{{Name: "a", URL: "http://h:1?x=y"}}},
	} {
		got, err := parseBackends(tt.in)
		if err != nil || !reflect.DeepEqual(got, tt.want) {
			t.Errorf("parseBackends(%q) = %v, %v, want %v", tt.in, got, err, tt.want)
		}
	}
	for _, in := range []string{"", "  ", ",", " , ", "a", "a=", "=http://h:1", "a=http://h:1,b"} {
		if got, err := parseBackends(in); err == nil {
			t.Errorf("parseBackends(%q) = %v, want an error", in, got)
		}
	}
}
