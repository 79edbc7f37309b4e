package report

import (
	"encoding/json"
	"io"
)

// WriteJSON renders any result value as indented JSON followed by a
// newline — the machine-readable counterpart to the text renderers.
// Encoding is deterministic for a given value (struct field order, no
// map iteration at the top level of our result types), which is what
// lets campaign runs assert byte-identical output across worker
// counts. Values must be NaN-free: absent signals are represented as
// nil/omitted fields, never NaN (encoding/json rejects NaN).
func WriteJSON(w io.Writer, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
