// The /search response body, rendered with strconv appends into a pooled
// buffer: byte for byte what encoding/json's Encoder writes for
//
//	struct {
//		Hits []hit `json:"hits"`
//	}
//
// with Hits built by hits() — pinned against encoding/json by
// TestSearchBodyMatchesEncodingJSON. It is the one response on the
// measured request path; /search/stream and /stats stay on encoding/json.

package serve

import (
	"strconv"
	"sync"
	"unicode/utf8"

	"reis/internal/reis"
)

// bodyBufs recycles the buffers /search bodies are rendered into.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendSearchBody appends the /search body for one query's results:
// the hits in rank order, document bodies cut at maxDocBytes, then the
// Encoder's newline.
// Distances are finite (squared INT8 distances), which encoding/json
// would insist on.
func appendSearchBody(dst []byte, results []reis.DocResult) []byte {
	dst = append(dst, `{"hits":[`...)
	for i, res := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = strconv.AppendInt(dst, int64(res.ID), 10)
		dst = append(dst, `,"dist":`...)
		dst = appendJSONFloat32(dst, res.Dist)
		dst = append(dst, `,"doc":`...)
		dst = appendJSONString(dst, res.Doc[:min(len(res.Doc), maxDocBytes)])
		dst = append(dst, '}')
	}
	return append(dst, ']', '}', '\n')
}

// appendJSONFloat32 appends f as encoding/json renders a float32: the
// shortest decimal that round-trips, in exponent form below 1e-6 and from
// 1e21 up (the ES6 number-to-string cutoffs), the exponent unpadded.
func appendJSONFloat32(dst []byte, f float32) []byte {
	format := byte('f')
	if abs := max(f, -f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, float64(f), format, -1, 32)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		// e-09 is written e-9
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends src as a JSON string the way encoding/json's
// Encoder does with its default HTML escaping: the quote and the
// backslash escaped, control bytes as \b \f \n \r \t or \u00XX, the HTML
// characters < > & as \u003c \u003e \u0026, U+2028 and U+2029 as \u2028
// and \u2029, and each byte that is not valid UTF-8 as \ufffd.
func appendJSONString(dst, src []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		b := src[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRune(src[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, src[start:]...)
	return append(dst, '"')
}
