package trace

import (
	"bufio"
	"io"
	"strconv"
)

// WriteChrome writes the recorded events in the Chrome trace-event JSON
// format (the JSON Array Format wrapped in an object), loadable by Perfetto
// and chrome://tracing. Track groups become processes, tracks become
// threads, spans become "X" complete events, instants "i", counters "C",
// and async spans "b"/"e" pairs.
//
// The writer is hand-rolled on purpose: encoding/json renders floats (the
// format's microsecond timestamps) via shortest-representation formatting,
// which is stable but easy to destabilise by refactoring; writing the
// timestamps with integer arithmetic (µs + ".%03d" of the ns remainder)
// makes byte-identical output a structural property instead of an accident.
func (t *Tracer) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[")
	first := true
	sep := func() {
		if first {
			first = false
			bw.WriteString("\n")
		} else {
			bw.WriteString(",\n")
		}
	}
	if t != nil {
		// Metadata: name the processes (groups) and threads (tracks).
		emitted := make(map[int]bool)
		for _, tk := range t.tracks {
			if !emitted[tk.group] {
				emitted[tk.group] = true
				sep()
				bw.WriteString("{\"ph\":\"M\",\"pid\":")
				writeInt(bw, int64(tk.group))
				bw.WriteString(",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":")
				writeString(bw, GroupName(tk.group))
				bw.WriteString("}}")
				sep()
				bw.WriteString("{\"ph\":\"M\",\"pid\":")
				writeInt(bw, int64(tk.group))
				bw.WriteString(",\"tid\":0,\"name\":\"process_sort_index\",\"args\":{\"sort_index\":")
				writeInt(bw, int64(tk.group))
				bw.WriteString("}}")
			}
			sep()
			bw.WriteString("{\"ph\":\"M\",\"pid\":")
			writeInt(bw, int64(tk.group))
			bw.WriteString(",\"tid\":")
			writeInt(bw, int64(tk.tid))
			bw.WriteString(",\"name\":\"thread_name\",\"args\":{\"name\":")
			writeString(bw, tk.name)
			bw.WriteString("}}")
		}
		for i := range t.events {
			ev := &t.events[i]
			tk := t.tracks[ev.Track]
			sep()
			switch ev.Kind {
			case KindSpan:
				bw.WriteString("{\"ph\":\"X\",\"pid\":")
				writeInt(bw, int64(tk.group))
				bw.WriteString(",\"tid\":")
				writeInt(bw, int64(tk.tid))
				bw.WriteString(",\"cat\":")
				writeString(bw, ev.Cat)
				bw.WriteString(",\"name\":")
				writeString(bw, ev.Name)
				bw.WriteString(",\"ts\":")
				writeMicros(bw, ev.Start)
				bw.WriteString(",\"dur\":")
				writeMicros(bw, ev.Dur)
				writeArgs(bw, ev)
				bw.WriteString("}")
			case KindInstant:
				bw.WriteString("{\"ph\":\"i\",\"pid\":")
				writeInt(bw, int64(tk.group))
				bw.WriteString(",\"tid\":")
				writeInt(bw, int64(tk.tid))
				bw.WriteString(",\"cat\":")
				writeString(bw, ev.Cat)
				bw.WriteString(",\"name\":")
				writeString(bw, ev.Name)
				bw.WriteString(",\"ts\":")
				writeMicros(bw, ev.Start)
				bw.WriteString(",\"s\":\"t\"")
				writeArgs(bw, ev)
				bw.WriteString("}")
			case KindCounter:
				// Chrome keys a counter series by (pid, name, id); the
				// track name as id keeps same-named counters on different
				// stations separate series without widening the name
				// vocabulary.
				bw.WriteString("{\"ph\":\"C\",\"pid\":")
				writeInt(bw, int64(tk.group))
				bw.WriteString(",\"tid\":")
				writeInt(bw, int64(tk.tid))
				bw.WriteString(",\"name\":")
				writeString(bw, ev.Name)
				bw.WriteString(",\"id\":")
				writeString(bw, tk.name)
				bw.WriteString(",\"ts\":")
				writeMicros(bw, ev.Start)
				bw.WriteString(",\"args\":{\"value\":")
				writeInt(bw, ev.Value)
				bw.WriteString("}}")
			case KindAsyncBegin, KindAsyncEnd:
				ph := "b"
				if ev.Kind == KindAsyncEnd {
					ph = "e"
				}
				bw.WriteString("{\"ph\":\"")
				bw.WriteString(ph)
				bw.WriteString("\",\"pid\":")
				writeInt(bw, int64(tk.group))
				bw.WriteString(",\"tid\":")
				writeInt(bw, int64(tk.tid))
				bw.WriteString(",\"cat\":")
				writeString(bw, ev.Cat)
				bw.WriteString(",\"name\":")
				writeString(bw, ev.Name)
				bw.WriteString(",\"id\":\"0x")
				bw.WriteString(strconv.FormatUint(ev.ID, 16))
				bw.WriteString("\",\"ts\":")
				writeMicros(bw, ev.Start)
				if ev.Kind == KindAsyncBegin {
					writeArgs(bw, ev)
				} else {
					bw.WriteString(",\"args\":{}")
				}
				bw.WriteString("}")
			}
		}
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// writeMicros writes virtual nanoseconds as decimal microseconds using
// integer arithmetic only: 1234567 ns -> "1234.567".
func writeMicros(bw *bufio.Writer, ns int64) {
	neg := ns < 0
	if neg {
		bw.WriteByte('-')
		ns = -ns
	}
	writeInt(bw, ns/1000)
	rem := ns % 1000
	bw.WriteByte('.')
	bw.WriteByte(byte('0' + rem/100))
	bw.WriteByte(byte('0' + rem/10%10))
	bw.WriteByte(byte('0' + rem%10))
}

func writeInt(bw *bufio.Writer, v int64) {
	var buf [20]byte
	bw.Write(strconv.AppendInt(buf[:0], v, 10))
}

// writeString writes a JSON string literal. Track, category and event names
// are program-chosen identifiers; strconv.Quote covers the full escape set
// deterministically.
func writeString(bw *bufio.Writer, s string) {
	var buf [64]byte
	bw.Write(strconv.AppendQuote(buf[:0], s))
}

func writeArgs(bw *bufio.Writer, ev *Event) {
	if ev.NArgs == 0 {
		return
	}
	bw.WriteString(",\"args\":{")
	for i := 0; i < int(ev.NArgs); i++ {
		if i > 0 {
			bw.WriteByte(',')
		}
		writeString(bw, ev.Args[i].Key)
		bw.WriteByte(':')
		writeInt(bw, ev.Args[i].Val)
	}
	bw.WriteByte('}')
}
