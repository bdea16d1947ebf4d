package pfs

// Striping returns the file layout.
func (f *FileMeta) Striping() Striping { return f.striping }
