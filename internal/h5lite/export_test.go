package h5lite

// TotalBytes reports the file size consumed so far.
func (w *Writer) TotalBytes() int64 { return w.cursor }
