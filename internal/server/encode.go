package server

import (
	"encoding/json"
	"net/http"
	"sync"
)

// The daemon's one JSON encode path. Every response body is the compact
// bytes of json.Marshal laid out by appendIndent — what json.Encoder with
// SetIndent("", "  ") wrote before — in one Write. A response the answer
// memo holds skips the marshal: its stored bytes are already that compact
// form.

// writeJSON marshals v and writes it as the response. A value that does
// not marshal (a NaN float) leaves the body empty, as json.Encoder did.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		return
	}
	writeBody(w, status, body)
}

// indentBufs recycles writeBody's output buffers. A buffer that grew past
// maxPooledBuf (a large job listing) is dropped instead of kept.
var indentBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 64 << 10

// writeBody writes compact — json.Marshal output — as the response,
// indented.
func writeBody(w http.ResponseWriter, status int, compact []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	bp := indentBufs.Get().(*[]byte)
	*bp = appendIndent((*bp)[:0], compact)
	_, _ = w.Write(*bp)
	if cap(*bp) <= maxPooledBuf {
		indentBufs.Put(bp)
	}
}

// indentSpaces is a run of indentation appendNewline copies from.
const indentSpaces = "                                "

// appendIndent appends src, the compact output of json.Marshal, to dst
// laid out exactly as json.Encoder with SetIndent("", "  ") lays it out,
// trailing newline included. json.Marshal writes no insignificant
// whitespace, so one pass needs only the nesting depth, whether the last
// '{' or '[' is still empty (an empty object or array stays "{}" or "[]"),
// and where each string ends; string contents are copied verbatim.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	open := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if open && c != '}' && c != ']' {
			open = false
			depth++
			dst = appendNewline(dst, depth)
		}
		switch c {
		case '{', '[':
			open = true
			dst = append(dst, c)
		case '}', ']':
			if open {
				open = false
			} else {
				depth--
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
		case ',':
			dst = appendNewline(append(dst, ','), depth)
		case ':':
			dst = append(dst, ':', ' ')
		case '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			j = min(j, len(src)-1)
			dst = append(dst, src[i:j+1]...)
			i = j
		default:
			// A number or literal: copy it up to the next structural byte.
			j := i + 1
			for j < len(src) && !structural(src[j]) {
				j++
			}
			dst = append(dst, src[i:j]...)
			i = j - 1
		}
	}
	return append(dst, '\n')
}

// structural reports whether c ends a number or literal in compact JSON.
func structural(c byte) bool {
	switch c {
	case '{', '}', '[', ']', ',', ':', '"':
		return true
	}
	return false
}

// appendNewline appends a newline and depth levels of two-space indent.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for n := 2 * depth; n > 0; {
		k := min(n, len(indentSpaces))
		dst = append(dst, indentSpaces[:k]...)
		n -= k
	}
	return dst
}
