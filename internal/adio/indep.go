package adio

import (
	"fmt"

	"repro/internal/extent"
	"repro/internal/mpe"
	"repro/internal/store"
)

// WriteStrided is ADIOI_GEN_WriteStrided: an independent strided write.
// Each covered run (a maximal stretch of adjacent segments) is written
// with one WriteContig straight from the caller's buffer, so holes are
// never filled by read-modify-write and the cache hook sees exactly the
// bytes written.
func (f *File) WriteStrided(segs []extent.Extent, data []byte) error {
	total, err := validateSegs(segs)
	if err != nil {
		return err
	}
	if data != nil && int64(len(data)) != total {
		return fmt.Errorf("adio: payload length %d != segment total %d", len(data), total)
	}
	if len(segs) == 0 {
		return nil
	}
	f.Stats.IndepWrites++
	f.metrics().Counter("adio_indep_writes_total", layerLabel).Inc()

	span := mpe.StartSpan(f.rank.Now())
	defer func() { span.End(f.log, mpe.PhaseWrite, f.rank.Now()) }()
	return eachRun(segs, data, func(src store.Payload, off, size int64) error {
		return f.WriteContig(src, off, size)
	})
}

// ReadStrided is ADIOI_GEN_ReadStrided: an independent strided read. Each
// covered run is read with one ReadContig straight into the caller's
// buffer. Reads target the global file unless the cache layer's optional
// read extension serves a locally cached extent.
func (f *File) ReadStrided(segs []extent.Extent, buf []byte) error {
	total, err := validateSegs(segs)
	if err != nil {
		return err
	}
	if buf != nil && int64(len(buf)) != total {
		return fmt.Errorf("adio: buffer length %d != segment total %d", len(buf), total)
	}
	return eachRun(segs, buf, func(dst store.Payload, off, size int64) error {
		return f.ReadContig(dst, off, size)
	})
}

// eachRun calls io once per covered run of segs, which must be sorted and
// disjoint, with the run's bytes of buf as its payload (buf holds the
// segments' bytes in segment order, so a run's bytes are contiguous in it;
// nil stays nil).
func eachRun(segs []extent.Extent, buf []byte, io func(b store.Payload, off, size int64) error) error {
	var at int64
	for i := 0; i < len(segs); {
		run := segs[i]
		for i++; i < len(segs) && segs[i].Off == run.End(); i++ {
			run.Len += segs[i].Len
		}
		var b store.Payload
		if buf != nil {
			b = store.Bytes(buf[at:at+run.Len], run.Off)
		}
		if err := io(b, run.Off, run.Len); err != nil {
			return err
		}
		at += run.Len
	}
	return nil
}
