package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"polyufc/internal/journal"
)

// CalibrationSchemaVersion is the persisted-calibration format version.
const CalibrationSchemaVersion = 1

// Provenance records where a calibration came from, so operators can tell
// which fit served a request (statsz, /v1/platforms).
type Provenance struct {
	// FitDate is the UTC RFC 3339 timestamp of the fit.
	FitDate string `json:"fit_date"`
	// Seed is the measurement-noise seed the fit ran under (0 = the
	// deterministic noiseless simulator).
	Seed int64 `json:"seed"`
	// Residuals holds the goodness-of-fit R^2 per fitted curve
	// (miss_latency, uncore_power).
	Residuals map[string]float64 `json:"residuals,omitempty"`
	// Tool identifies the producer ("polyufc/roofline").
	Tool string `json:"tool,omitempty"`
}

// Calibration is the persisted artifact of one roofline fit: the Table-I
// Constants and Sec. V curve fits for one backend, pinned by content hash
// to the exact description they were fitted against.
type Calibration struct {
	Schema int `json:"schema"`
	// Backend is the canonical name of the fitted backend; BackendHash
	// pins the exact description (Backend.Hash) so a stale artifact for
	// an edited description is rejected instead of silently used.
	Backend     string     `json:"backend"`
	BackendHash string     `json:"backend_hash,omitempty"`
	Constants   Constants  `json:"constants"`
	Provenance  Provenance `json:"provenance"`
}

// Marshal renders the artifact as indented JSON. Encoding is
// deterministic: struct fields emit in declaration order and map keys
// (Residuals) sort.
func (c *Calibration) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("platform: marshal calibration %q: %w", c.Backend, err)
	}
	return append(out, '\n'), nil
}

// ParseCalibration decodes a persisted calibration, rejecting unknown
// fields and wrong schema versions with errors naming the problem.
func ParseCalibration(data []byte) (*Calibration, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Calibration
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("platform: parse calibration: %w", err)
	}
	if c.Schema != CalibrationSchemaVersion {
		return nil, fmt.Errorf("platform: calibration for %q: schema: got version %d, this build reads version %d (re-run the calibration)",
			c.Backend, c.Schema, CalibrationSchemaVersion)
	}
	if c.Backend == "" {
		return nil, fmt.Errorf("platform: calibration: backend: must name the fitted backend")
	}
	return &c, nil
}

// Matches reports whether the artifact was fitted against b, checking the
// name and (when recorded) the description content hash.
func (c *Calibration) Matches(b *Backend) error {
	if c.Backend != b.Name {
		return fmt.Errorf("platform: calibration is for backend %q, not %q", c.Backend, b.Name)
	}
	if h := b.Hash(); c.BackendHash != "" && c.BackendHash != h {
		return fmt.Errorf("platform: calibration for %q was fitted against description %s, but the current description is %s (re-calibrate)",
			c.Backend, c.BackendHash, h)
	}
	return nil
}

// Save writes the artifact crash-safely through journal.AtomicWrite: an
// fsynced temporary file renamed over path, so path always holds a whole
// artifact, the old one or the new one.
func (c *Calibration) Save(path string) error {
	data, err := c.Marshal()
	if err != nil {
		return err
	}
	err = journal.AtomicWrite(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("platform: save calibration: %w", err)
	}
	return nil
}

// LoadCalibration reads and validates a persisted calibration file.
func LoadCalibration(path string) (*Calibration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("platform: load calibration: %w", err)
	}
	c, err := ParseCalibration(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return c, nil
}
