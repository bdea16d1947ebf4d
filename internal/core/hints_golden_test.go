package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adio"
	"repro/internal/mpi"
)

// The hint-parse golden: every fuzz-corpus Info of the hint parsers and
// hintGoldenRandom seeded random Infos, parsed the way a collective open
// parses them (adio.ParseHints, then ParseOptions of its Extra). Each
// input records the normalized hints, what MPI_File_get_info reports and
// the cache options, or the first error. -update regenerates the file.
const (
	hintGoldenFile   = "testdata/hints_golden.json"
	hintGoldenRandom = 2000
)

// Behaviour changes the golden marks: inputs whose outcome the hint tables
// define differently from the map-order parser they replaced.
const (
	// changeFirstInvalid: several invalid adio hints; the error names the
	// first in table order (the old parser named a random one).
	changeFirstInvalid = "first_invalid_in_table_order"
	// changeResilientValue: e10_resilient_write is neither enable nor
	// disable; the open fails (the old parser ignored the value).
	changeResilientValue = "resilient_write_validated"
	// changeConfigListStrict: cb_config_list has input after "*:N" and
	// no other adio hint is invalid; the open fails (the old parse
	// ignored the trailing input and echoed "*:N").
	changeConfigListStrict = "cb_config_list_strict"
)

// trailingConfigList is the generator's cb_config_list value with input
// after "*:N". The parser accepted it when the golden's inputs were drawn,
// so the generator's filter and the change marks still count it valid:
// the drawn inputs and their marks stay the ones recorded.
const trailingConfigList = "*:3x"

// tableIKeys are the Table I hints and cb_config_list, in table order.
var tableIKeys = []string{
	adio.HintCBWrite, adio.HintCBRead, adio.HintCBBufferSize, adio.HintCBNodes,
	adio.HintIndWrBufferSize, adio.HintStripingFactor, adio.HintStripingUnit,
	adio.HintCBConfigList,
}

// hintValues are the value shapes the generator draws for each key: valid,
// boundary ("0", "0s", "*:0", empty) and invalid.
var hintValues = map[string][]string{
	adio.HintCBWrite:         {"enable", "disable", "automatic", "maybe", "", "Enable"},
	adio.HintCBRead:          {"enable", "disable", "automatic", "sometimes", ""},
	adio.HintCBBufferSize:    {"1048576", "16777216", "1", "0", "-1", "x", "", "+4096", "1.5", "99999999999999999999"},
	adio.HintCBNodes:         {"1", "2", "16", "9999", "0", "-3", "x", "", "+2"},
	adio.HintIndWrBufferSize: {"524288", "4096", "0", "-1", "big", ""},
	adio.HintStripingFactor:  {"1", "4", "0", "-2", "four", ""},
	adio.HintStripingUnit:    {"1048576", "4194304", "0", "x", ""},
	adio.HintCBConfigList:    {"*:1", "*:2", "*:0", "*:-1", "2", "", trailingConfigList, "node:1"},
	adio.HintResilientWrite:  {"enable", "disable", "enabled", "", "ENABLE"},
	HintCache:                {CacheEnable, CacheDisable, CacheCoherent, "please", ""},
	HintCachePath:            {"/scratch", "/nvm/cache", ""},
	HintFlushFlag:            {FlushImmediate, FlushOnClose, FlushAdaptive, "flush_never", ""},
	HintDiscardFlag:          {"enable", "disable", "yes", ""},
	HintCacheRead:            {"enable", "disable", "sometimes", ""},
	HintCacheRecovery:        {"enable", "disable", "true", ""},
	HintSyncRetryLimit:       {"0", "7", "4", "-3", "x", ""},
	HintSyncRetryBackoff:     {"0s", "0", "25ms", "1s", "-1s", "x", ""},
	HintTenant:               {"jobA", "t", ""},
	HintTenantQuotaBytes:     {"0", "100", "1048576", "9999999999", "-5", "x", ""},
	HintTenantQuotaFiles:     {"0", "2", "-1", "x", ""},
	HintTenantReserve:        {"0", "65536", "200", "-1", "x", ""},
	HintTenantAdmit:          {AdmitReject, AdmitQueue, "beg", ""},
	HintTenantPolicy:         {PolicyBlock, PolicyWriteThrough, "maybe", ""},
	HintTenantBlockTimeout:   {"0s", "5ms", "-1s", "x", ""},
	"romio_ds_write":         {"enable", "x"},
	"e10_unknown":            {"1", ""},
	"striping_unit_typo":     {"4096"},
}

// hintView is the normalized adio hint set, independent of where a hint is
// stored: Resilient is whether the collective write takes the failover
// path.
type hintView struct {
	CBWrite, CBRead string
	CBNodes         int
	CBBufferSize    int64
	IndWrBufferSize int64
	StripingFactor  int
	StripingUnit    int64
	CBPerNode       int
	Resilient       bool
}

type hintRecord struct {
	Info    mpi.Info  `json:"info"`
	Comm    int       `json:"comm"`
	Change  string    `json:"change,omitempty"`
	Err     string    `json:"err,omitempty"`
	Hints   *hintView `json:"hints,omitempty"`
	Echo    mpi.Info  `json:"echo,omitempty"`
	Options *Options  `json:"options,omitempty"`
}

// hintGoldenInputs returns the fuzz corpora's Infos followed by the seeded
// random ones.
func hintGoldenInputs(t *testing.T) []hintRecord {
	var in []hintRecord
	for _, dir := range []string{
		"../adio/testdata/fuzz/FuzzParseHints",
		"testdata/fuzz/FuzzParseOptions",
		"testdata/fuzz/FuzzParseTenantOptions",
	} {
		files, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("corpus %s: %v (%d files)", dir, err, len(files))
		}
		for _, name := range files {
			in = append(in, readCorpusInfo(t, name))
		}
	}
	keys := make([]string, 0, len(hintValues))
	for k := range hintValues {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	rng := rand.New(rand.NewSource(40))
	comms := []int{1, 2, 4, 8, 64, 512}
	for range hintGoldenRandom {
		info := mpi.Info{}
		for n := rng.Intn(7); n > 0; n-- {
			k := keys[rng.Intn(len(keys))]
			vals := hintValues[k]
			info[k] = vals[rng.Intn(len(vals))]
		}
		// Keep at most one invalid Table I hint.
		bad := 0
		for _, k := range tableIKeys {
			if v, ok := info[k]; ok && !validWhenDrawn(k, v) {
				if bad++; bad > 1 {
					delete(info, k)
				}
			}
		}
		in = append(in, hintRecord{Info: info, Comm: comms[rng.Intn(len(comms))]})
	}
	return in
}

// readCorpusInfo reads a "go test fuzz v1" file of string key/value pairs,
// optionally followed by an int communicator size (4 when absent).
func readCorpusInfo(t *testing.T, name string) hintRecord {
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	var strs []string
	rec := hintRecord{Info: mpi.Info{}, Comm: 4}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "string(") && strings.HasSuffix(line, ")"):
			s, err := strconv.Unquote(line[len("string(") : len(line)-1])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			strs = append(strs, s)
		case strings.HasPrefix(line, "int("):
			if rec.Comm, err = strconv.Atoi(strings.TrimSuffix(line[len("int("):], ")")); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	for i := 0; i+1 < len(strs); i += 2 {
		if strs[i] != "" {
			rec.Info[strs[i]] = strs[i+1]
		}
	}
	return rec
}

// validWhenDrawn reports whether the parser accepted k=v alone when the
// golden's inputs were drawn.
func validWhenDrawn(k, v string) bool {
	if k == adio.HintCBConfigList && v == trailingConfigList {
		return true
	}
	_, err := adio.ParseHints(mpi.Info{k: v}, 8)
	return err == nil
}

// change names the behaviour change an input falls under, if any.
func change(info mpi.Info) string {
	bad := 0
	for _, k := range tableIKeys {
		if v, ok := info[k]; ok && !validWhenDrawn(k, v) {
			bad++
		}
	}
	if bad > 1 {
		return changeFirstInvalid
	}
	if bad == 0 && info[adio.HintCBConfigList] == trailingConfigList {
		return changeConfigListStrict
	}
	if v, ok := info[adio.HintResilientWrite]; ok && v != adio.HintEnable && v != adio.HintDisable {
		return changeResilientValue
	}
	return ""
}

// parseRecord parses one input the way a collective open does.
func parseRecord(rec hintRecord) hintRecord {
	rec.Change = change(rec.Info)
	h, err := adio.ParseHints(rec.Info, rec.Comm)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Hints = &hintView{
		CBWrite: h.CBWrite, CBRead: h.CBRead, CBNodes: h.CBNodes,
		CBBufferSize: h.CBBufferSize, IndWrBufferSize: h.IndWrBufferSize,
		StripingFactor: h.StripingFactor, StripingUnit: h.StripingUnit,
		CBPerNode: h.CBPerNode, Resilient: h.ResilientWrite == adio.HintEnable,
	}
	rec.Echo = h.Echo()
	o, err := ParseOptions(h.Extra)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Options = &o
	return rec
}

func TestHintParseGolden(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, rec := range hintGoldenInputs(t) {
		rec = parseRecord(rec)
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			buf.WriteString(",\n")
		}
		buf.Write(line)
	}
	buf.WriteString("\n]\n")
	if *update {
		if err := os.WriteFile(hintGoldenFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(hintGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	got, exp := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range max(len(got), len(exp)) {
		if i >= len(got) || i >= len(exp) || !bytes.Equal(got[i], exp[i]) {
			t.Fatalf("%s differs first at line %d (of %d, want %d lines):\ngot  %.600s\nwant %.600s",
				hintGoldenFile, i+1, len(got), len(exp), lineAt(got, i), lineAt(exp, i))
		}
	}
}

func lineAt(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return nil
}
