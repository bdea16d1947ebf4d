// Package adio re-implements the ADIO layer of ROMIO: file-system drivers,
// collective open, the extended two-phase collective write algorithm
// (ADIOI_GEN_WriteStridedColl / ADIOI_Exch_and_write), independent strided
// I/O, and the MPI-IO hint machinery of Table I of the paper.
//
// The persistent-cache extension of the paper (Table II) plugs in through
// the Hooks interface, implemented by package core; adio itself stays
// cache-agnostic, mirroring how the authors' patches hook ADIOI_GEN_*
// routines in the UFS driver.
package adio

import (
	"fmt"
	"strconv"

	"repro/internal/mpi"
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
	CBNodes         int   // number of aggregator processes
	CBBufferSize    int64 // collective buffer size in bytes
	IndWrBufferSize int64 // independent-write / cache-sync buffer size
	StripingFactor  int   // stripe count for file creation
	StripingUnit    int64 // stripe size for file creation
	CBPerNode       int   // cb_config_list "*:N": aggregators per node (0 = spread)

	// Extra carries hints not interpreted by this layer (e.g. the e10_*
	// cache hints of Table II, consumed by package core).
	Extra mpi.Info
}

// ParseHints normalizes an MPI_Info object against ROMIO defaults.
// commSize bounds cb_nodes. Unknown keys are preserved in Extra, matching
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
	for k, v := range info {
		switch k {
		case HintCBWrite:
			if err := validTri(k, v); err != nil {
				return nil, err
			}
			h.CBWrite = v
		case HintCBRead:
			if err := validTri(k, v); err != nil {
				return nil, err
			}
			h.CBRead = v
		case HintCBNodes:
			n, err := parsePositiveInt(k, v)
			if err != nil {
				return nil, err
			}
			if n > commSize {
				n = commSize
			}
			h.CBNodes = n
		case HintCBBufferSize:
			n, err := parsePositiveInt(k, v)
			if err != nil {
				return nil, err
			}
			h.CBBufferSize = int64(n)
		case HintIndWrBufferSize:
			n, err := parsePositiveInt(k, v)
			if err != nil {
				return nil, err
			}
			h.IndWrBufferSize = int64(n)
		case HintStripingFactor:
			n, err := parsePositiveInt(k, v)
			if err != nil {
				return nil, err
			}
			h.StripingFactor = n
		case HintStripingUnit:
			n, err := parsePositiveInt(k, v)
			if err != nil {
				return nil, err
			}
			h.StripingUnit = int64(n)
		case HintCBConfigList:
			var n int
			if _, err := fmt.Sscanf(v, "*:%d", &n); err != nil || n <= 0 {
				return nil, fmt.Errorf("adio: hint %s: unsupported value %q (want \"*:N\")", k, v)
			}
			h.CBPerNode = n
		default:
			h.Extra[k] = v
		}
	}
	return h, nil
}

// Echo renders the normalized hints as an Info object, the way
// MPI_File_get_info reports back what the implementation is using.
func (h *Hints) Echo() mpi.Info {
	out := mpi.Info{
		HintCBWrite:         h.CBWrite,
		HintCBRead:          h.CBRead,
		HintCBNodes:         strconv.Itoa(h.CBNodes),
		HintCBBufferSize:    strconv.FormatInt(h.CBBufferSize, 10),
		HintIndWrBufferSize: strconv.FormatInt(h.IndWrBufferSize, 10),
	}
	if h.StripingFactor > 0 {
		out[HintStripingFactor] = strconv.Itoa(h.StripingFactor)
	}
	if h.StripingUnit > 0 {
		out[HintStripingUnit] = strconv.FormatInt(h.StripingUnit, 10)
	}
	if h.CBPerNode > 0 {
		out[HintCBConfigList] = fmt.Sprintf("*:%d", h.CBPerNode)
	}
	for k, v := range h.Extra {
		out[k] = v
	}
	return out
}

func validTri(key, v string) error {
	switch v {
	case HintEnable, HintDisable, HintAutomatic:
		return nil
	}
	return fmt.Errorf("adio: hint %s: invalid value %q", key, v)
}

func parsePositiveInt(key, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("adio: hint %s: invalid value %q", key, v)
	}
	return n, nil
}
