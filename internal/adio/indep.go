package adio

import (
	"fmt"

	"repro/internal/extent"
	"repro/internal/mpe"
)

// WriteStrided is ADIOI_GEN_WriteStrided: an independent strided write.
// Contiguous runs are written directly; when the access pattern leaves
// holes that are dense enough, ROMIO-style data sieving performs
// read-modify-write cycles of ind_wr_buffer_size, which is also the reason
// that hint defines the independent write granularity (§III of the paper).
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

	pre := prefixSums(segs, data)

	// Coalesce the segments into contiguous runs.
	var cover extent.Set
	for _, s := range segs {
		cover.Add(s)
	}
	runs := cover.Extents()

	span := mpe.StartSpan(f.rank.Now())
	defer func() { span.End(f.log, mpe.PhaseWrite, f.rank.Now()) }()

	spanExt := extent.Extent{Off: segs[0].Off, Len: segs[len(segs)-1].End() - segs[0].Off}
	holeBytes := spanExt.Len - total
	// Sieve when the pattern is hole-y but dense: the extra bytes moved by
	// read-modify-write are less than half the window.
	if len(runs) > 1 && holeBytes*2 < spanExt.Len {
		return f.sieveWrite(spanExt, segs, pre, data)
	}
	for _, run := range runs {
		var rd []byte
		if data != nil {
			rd = make([]byte, run.Len)
			fillRun(rd, run, segs, pre, data)
		}
		if err := f.WriteContig(rd, run.Off, run.Len); err != nil {
			return err
		}
	}
	return nil
}

// sieveWrite performs data sieving over spanExt in ind_wr_buffer_size
// windows: read the window, overlay the new bytes, write it back.
func (f *File) sieveWrite(spanExt extent.Extent, segs []extent.Extent, pre []int64, data []byte) error {
	bufSize := f.hints.IndWrBufferSize
	if bufSize <= 0 {
		bufSize = DefaultIndWrBufferSize
	}
	if bufSize > f.Stats.PeakBufBytes {
		f.Stats.PeakBufBytes = bufSize
	}
	p := f.rank.Proc()
	var pieces []extent.Extent
	for off := spanExt.Off; off < spanExt.End(); off += bufSize {
		win := extent.Extent{Off: off, Len: min64(bufSize, spanExt.End()-off)}
		// Which segments intersect this window?
		pieces = clipSegs(pieces[:0], segs, win)
		covered := int64(0)
		for _, e := range pieces {
			covered += e.Len
		}
		if len(pieces) == 0 {
			continue
		}
		if covered == win.Len {
			// Fully covered: no read needed.
			var wd []byte
			if data != nil {
				wd = make([]byte, win.Len)
				for _, e := range pieces {
					copy(wd[e.Off-win.Off:], segPayload(e, segs, pre, data))
				}
			}
			if err := f.WriteContig(wd, win.Off, win.Len); err != nil {
				return err
			}
			continue
		}
		// Read-modify-write.
		f.Stats.SievedWrites++
		var wd []byte
		if data != nil {
			wd = make([]byte, win.Len)
		}
		if err := f.backend.ReadContig(p, wd, win.Off, win.Len); err != nil {
			return err
		}
		if data != nil {
			for _, e := range pieces {
				copy(wd[e.Off-win.Off:], segPayload(e, segs, pre, data))
			}
		}
		if err := f.WriteContig(wd, win.Off, win.Len); err != nil {
			return err
		}
	}
	return nil
}

// fillRun assembles the payload bytes of run (a coalesced union of
// segments) into rd.
func fillRun(rd []byte, run extent.Extent, segs []extent.Extent, pre []int64, data []byte) {
	for i := segSearch(segs, run.Off); i < len(segs) && segs[i].Off < run.End(); i++ {
		s := segs[i]
		ov := s.Intersect(run)
		start := pre[i] + (ov.Off - s.Off)
		copy(rd[ov.Off-run.Off:], data[start:start+ov.Len])
	}
}

// ReadStrided is ADIOI_GEN_ReadStrided: an independent strided read.
// Dense hole-y patterns use read data sieving — one large contiguous read
// of ind_rd_buffer_size per window, from which the wanted pieces are
// extracted — which is how ROMIO turns many small reads into few large
// ones. Reads target the global file unless the cache layer's optional
// read extension serves a locally cached extent.
func (f *File) ReadStrided(segs []extent.Extent, buf []byte) error {
	total, err := validateSegs(segs)
	if err != nil {
		return err
	}
	if buf != nil && int64(len(buf)) != total {
		return fmt.Errorf("adio: buffer length %d != segment total %d", len(buf), total)
	}
	if len(segs) == 0 {
		return nil
	}
	pre := prefixSums(segs, buf)
	spanExt := extent.Extent{Off: segs[0].Off, Len: segs[len(segs)-1].End() - segs[0].Off}
	holeBytes := spanExt.Len - total
	if len(segs) > 1 && holeBytes*2 < spanExt.Len {
		return f.sieveRead(spanExt, segs, pre, buf)
	}
	var cursor int64
	for _, s := range segs {
		var rd []byte
		if buf != nil {
			rd = buf[cursor : cursor+s.Len]
		}
		if err := f.ReadContig(rd, s.Off, s.Len); err != nil {
			return err
		}
		cursor += s.Len
	}
	return nil
}

// sieveRead reads whole ind_rd_buffer_size windows and scatters the
// requested pieces into the caller's buffer.
func (f *File) sieveRead(spanExt extent.Extent, segs []extent.Extent, pre []int64, buf []byte) error {
	bufSize := f.hints.IndRdBufferSize
	if bufSize <= 0 {
		bufSize = DefaultIndRdBufferSize
	}
	if bufSize > f.Stats.PeakBufBytes {
		f.Stats.PeakBufBytes = bufSize
	}
	var pieces []extent.Extent
	for off := spanExt.Off; off < spanExt.End(); off += bufSize {
		win := extent.Extent{Off: off, Len: min64(bufSize, spanExt.End()-off)}
		pieces = clipSegs(pieces[:0], segs, win)
		if len(pieces) == 0 {
			continue
		}
		f.Stats.SievedReads++
		var wd []byte
		if buf != nil {
			wd = make([]byte, win.Len)
		}
		if err := f.ReadContig(wd, win.Off, win.Len); err != nil {
			return err
		}
		if buf == nil {
			continue
		}
		for _, e := range pieces {
			i := segIndexOf(segs, e)
			dst := pre[i] + (e.Off - segs[i].Off)
			copy(buf[dst:dst+e.Len], wd[e.Off-win.Off:])
		}
	}
	return nil
}
