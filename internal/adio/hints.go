// Package adio re-implements the ADIO layer of ROMIO: file-system drivers,
// collective open, the extended two-phase collective write algorithm
// (ADIOI_GEN_WriteStridedColl / ADIOI_Exch_and_write), independent strided
// I/O, and the MPI-IO hint machinery of Table I of the paper.
//
// Each hint is declared once, as one Hint row of the table of the layer
// that interprets it: its key, how a valid value is stored and what
// MPI_File_get_info reports. DecodeHints applies an Info to a layer's
// options in table order, so the first invalid hint reported is always the
// same one. This package's table (hintTable) holds Table I,
// cb_config_list and e10_resilient_write; package core's holds Table II.
//
// The persistent-cache extension of the paper (Table II) plugs in through
// the Hooks interface, implemented by package core; adio itself stays
// cache-agnostic, mirroring how the authors' patches hook ADIOI_GEN_*
// routines in the UFS driver.
package adio

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Hint keys from Table I of the paper (standard ROMIO collective hints)
// plus the striping hints discussed in §II-B.
const (
	HintCBWrite         = "romio_cb_write"
	HintCBRead          = "romio_cb_read"
	HintCBBufferSize    = "cb_buffer_size"
	HintCBNodes         = "cb_nodes"
	HintIndWrBufferSize = "ind_wr_buffer_size"
	HintStripingFactor  = "striping_factor"
	HintStripingUnit    = "striping_unit"
	// HintCBConfigList is ROMIO's aggregator-placement hint, supported in
	// the simplified "*:N" form: at most N aggregator ranks per node,
	// filling nodes in order. Unset (or "*:1"-like spreading) matches
	// ROMIO's default of distributing aggregators across nodes.
	HintCBConfigList = "cb_config_list"
	// HintResilientWrite ("enable"/"disable") selects the failover-capable
	// collective write path (coll_resilient.go).
	HintResilientWrite = "e10_resilient_write"
)

// Tri-state hint values.
const (
	HintEnable    = "enable"
	HintDisable   = "disable"
	HintAutomatic = "automatic"
)

// Defaults mirroring ROMIO's.
const (
	DefaultCBBufferSize    = 16 << 20  // 16 MB
	DefaultIndWrBufferSize = 512 << 10 // 512 KB, "the standard independent I/O buffer size"
)

// Hints is the parsed, normalized hint set attached to an open file. A
// collective open shares one Hints among all ranks whose Info is equal
// (see sharedHints), so a Hints and its Extra are read-only after
// ParseHints returns: no layer may mutate them.
type Hints struct {
	CBWrite         string // enable | disable | automatic
	CBRead          string
	CBNodes         int    // number of aggregator processes, at most the communicator size
	CBBufferSize    int64  // collective buffer size in bytes, positive
	IndWrBufferSize int64  // independent-write / cache-sync buffer size, positive
	StripingFactor  int    // stripe count for file creation (0 = unset)
	StripingUnit    int64  // stripe size for file creation (0 = unset)
	CBPerNode       int    // cb_config_list "*:N": aggregators per node (0 = spread)
	ResilientWrite  string // e10_resilient_write: "" (unset) | enable | disable

	// Extra carries hints not interpreted by this layer (e.g. the e10_*
	// cache hints of Table II, consumed by package core).
	Extra mpi.Info
}

// A Hint declares one MPI-IO hint of the options O a layer parses it into.
type Hint[O any] struct {
	Key string
	// Set stores a valid value v into o and returns "", or returns why v
	// is invalid.
	Set func(o *O, v string) string
	// Echo renders the stored value as MPI_File_get_info reports it; ""
	// leaves the key out. Hints.Echo calls it for hintTable's rows only:
	// core's hints are reported from Extra as given.
	Echo func(o *O) string
}

// DecodeHints applies info to o one table row at a time, in table order,
// and stops at the first invalid hint, reporting it as prefix, key and
// reason. Keys the table does not declare are ignored.
func DecodeHints[O any](info mpi.Info, o *O, table []Hint[O], prefix string) error {
	for _, h := range table {
		if v, ok := info[h.Key]; ok {
			if why := h.Set(o, v); why != "" {
				return fmt.Errorf("%s%s: %s", prefix, h.Key, why)
			}
		}
	}
	return nil
}

// Enum is the hint kind that accepts one of vals into a string field.
func Enum[O any](key string, field func(*O) *string, vals ...string) Hint[O] {
	return Hint[O]{Key: key,
		Set: func(o *O, v string) string {
			if !slices.Contains(vals, v) {
				return invalid(v)
			}
			*field(o) = v
			return ""
		},
		Echo: func(o *O) string { return *field(o) },
	}
}

// Flag is the hint kind that accepts enable or disable into a bool field.
func Flag[O any](key string, field func(*O) *bool) Hint[O] {
	return Hint[O]{Key: key, Set: func(o *O, v string) string {
		if v != HintEnable && v != HintDisable {
			return invalid(v)
		}
		*field(o) = v == HintEnable
		return ""
	}}
}

// Int is the hint kind that accepts a decimal integer of at least least
// (1: positive, 0: non-negative); 0 echoes as unset.
func Int[O any, N int | int64](key string, least int64, field func(*O) *N) Hint[O] {
	return Hint[O]{Key: key,
		Set: func(o *O, v string) string {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < least {
				return invalid(v)
			}
			*field(o) = N(n)
			return ""
		},
		Echo: func(o *O) string {
			if n := *field(o); n != 0 {
				return strconv.FormatInt(int64(n), 10)
			}
			return ""
		},
	}
}

// Duration is the hint kind that accepts a non-negative Go duration
// string ("10ms") into a virtual-time field.
func Duration[O any](key string, field func(*O) *sim.Time) Hint[O] {
	return Hint[O]{Key: key, Set: func(o *O, v string) string {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return invalid(v)
		}
		*field(o) = sim.Time(d.Nanoseconds())
		return ""
	}}
}

// NonEmpty is the hint kind that accepts any non-empty string; what names
// the value in the error for an empty one.
func NonEmpty[O any](key, what string, field func(*O) *string) Hint[O] {
	return Hint[O]{Key: key, Set: func(o *O, v string) string {
		if v == "" {
			return "empty " + what
		}
		*field(o) = v
		return ""
	}}
}

func invalid(v string) string { return fmt.Sprintf("invalid value %q", v) }

// hintTable is Table I plus cb_config_list and e10_resilient_write, in the
// order ParseHints applies them.
var hintTable = []Hint[Hints]{
	Enum(HintCBWrite, func(h *Hints) *string { return &h.CBWrite }, HintEnable, HintDisable, HintAutomatic),
	Enum(HintCBRead, func(h *Hints) *string { return &h.CBRead }, HintEnable, HintDisable, HintAutomatic),
	Int(HintCBBufferSize, 1, func(h *Hints) *int64 { return &h.CBBufferSize }),
	Int(HintCBNodes, 1, func(h *Hints) *int { return &h.CBNodes }),
	Int(HintIndWrBufferSize, 1, func(h *Hints) *int64 { return &h.IndWrBufferSize }),
	Int(HintStripingFactor, 1, func(h *Hints) *int { return &h.StripingFactor }),
	Int(HintStripingUnit, 1, func(h *Hints) *int64 { return &h.StripingUnit }),
	{Key: HintCBConfigList,
		Set: func(h *Hints, v string) string {
			per, ok := strings.CutPrefix(v, "*:")
			n, err := strconv.Atoi(per)
			if !ok || err != nil || n <= 0 {
				return fmt.Sprintf("unsupported value %q (want \"*:N\")", v)
			}
			h.CBPerNode = n
			return ""
		},
		Echo: func(h *Hints) string {
			if h.CBPerNode > 0 {
				return fmt.Sprintf("*:%d", h.CBPerNode)
			}
			return ""
		},
	},
	Enum(HintResilientWrite, func(h *Hints) *string { return &h.ResilientWrite }, HintEnable, HintDisable),
}

// ParseHints normalizes an MPI_Info object against ROMIO defaults: cb_nodes
// is clamped to commSize. Unknown keys are preserved in Extra, matching
// MPI's requirement that unrecognized hints be ignored, not rejected.
func ParseHints(info mpi.Info, commSize int) (*Hints, error) {
	h := &Hints{
		CBWrite:         HintAutomatic,
		CBRead:          HintAutomatic,
		CBNodes:         commSize,
		CBBufferSize:    DefaultCBBufferSize,
		IndWrBufferSize: DefaultIndWrBufferSize,
		Extra:           mpi.Info{},
	}
	if err := DecodeHints(info, h, hintTable, "adio: hint "); err != nil {
		return nil, err
	}
	h.CBNodes = min(h.CBNodes, commSize)
	maps.Copy(h.Extra, info)
	for _, row := range hintTable {
		delete(h.Extra, row.Key)
	}
	return h, nil
}

// Echo renders the normalized hints as an Info object, the way
// MPI_File_get_info reports back what the implementation is using.
func (h *Hints) Echo() mpi.Info {
	out := mpi.Info{}
	maps.Copy(out, h.Extra)
	for _, row := range hintTable {
		if v := row.Echo(h); v != "" {
			out[row.Key] = v
		}
	}
	return out
}
