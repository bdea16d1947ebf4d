package adio

import (
	"testing"

	"repro/internal/mpi"
)

// FuzzParseHints drives the Table I hint parser with adversarial key/value
// pairs. ParseHints must never panic; accepted hint sets must be normalized
// (positive sizes, cb_nodes within the communicator) and leave unknown keys
// untouched in Extra, and a rejected one must name the same hint on every
// parse.
func FuzzParseHints(f *testing.F) {
	f.Add("romio_cb_write", "enable", "cb_nodes", "16", 64)
	f.Add("cb_buffer_size", "16777216", "striping_unit", "4194304", 512)
	f.Add("cb_nodes", "9999", "ind_wr_buffer_size", "524288", 8)
	f.Add("romio_cb_read", "automatic", "striping_factor", "4", 4)
	f.Add("cb_config_list", "*:2", "e10_cache", "enable", 16)
	f.Add("cb_buffer_size", "-1", "cb_nodes", "0", 4)
	f.Add("cb_buffer_size", "not-a-number", "romio_cb_write", "maybe", 4)
	f.Add("", "", "", "", 1)
	f.Add("cb_nodes", "1", "cb_nodes", "2", 0)
	f.Fuzz(func(t *testing.T, k1, v1, k2, v2 string, commSize int) {
		if commSize < 1 || commSize > 1<<20 {
			return
		}
		info := mpi.Info{}
		if k1 != "" {
			info[k1] = v1
		}
		if k2 != "" {
			info[k2] = v2
		}
		h, err := ParseHints(info, commSize)
		if err != nil {
			// The first invalid hint in table order is reported, every time.
			if _, err2 := ParseHints(info, commSize); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("ParseHints(%v) not deterministic: %v, then %v", info, err, err2)
			}
			return
		}
		if h.CBNodes < 1 || h.CBNodes > commSize {
			t.Fatalf("ParseHints(%v, %d): cb_nodes = %d outside [1,%d]", info, commSize, h.CBNodes, commSize)
		}
		if h.CBBufferSize <= 0 || h.IndWrBufferSize <= 0 {
			t.Fatalf("ParseHints(%v): non-positive buffer size %+v", info, h)
		}
		switch h.CBWrite {
		case HintEnable, HintDisable, HintAutomatic:
		default:
			t.Fatalf("ParseHints(%v): invalid cb_write %q", info, h.CBWrite)
		}
		switch h.CBRead {
		case HintEnable, HintDisable, HintAutomatic:
		default:
			t.Fatalf("ParseHints(%v): invalid cb_read %q", info, h.CBRead)
		}
		if h.CBPerNode < 0 {
			t.Fatalf("ParseHints(%v): negative cb_config_list %d", info, h.CBPerNode)
		}
		// Keys this layer interprets must not leak into Extra, and Extra
		// must be a subset of the input.
		for k, v := range h.Extra {
			switch k {
			case HintCBWrite, HintCBRead, HintCBNodes, HintCBBufferSize,
				HintIndWrBufferSize,
				HintStripingFactor, HintStripingUnit, HintCBConfigList, HintResilientWrite:
				t.Fatalf("ParseHints(%v): interpreted key %q leaked into Extra", info, k)
			}
			if got, ok := info.Get(k); !ok || got != v {
				t.Fatalf("ParseHints(%v): Extra[%q]=%q not from input", info, k, v)
			}
		}
		// Parsing is deterministic.
		h2, err := ParseHints(info, commSize)
		if err != nil {
			t.Fatalf("ParseHints(%v) not deterministic: second call failed: %v", info, err)
		}
		if h2.CBNodes != h.CBNodes || h2.CBBufferSize != h.CBBufferSize || h2.CBWrite != h.CBWrite {
			t.Fatalf("ParseHints(%v) not deterministic: %+v vs %+v", info, h, h2)
		}
	})
}
