// Fixture: a crash-safety package discarding errors from the durable
// package.
package serve

import "bitspread/internal/durable"

func discards(fsys durable.FS, l *durable.Log) {
	durable.Publish(fsys, "result.json", nil) // want "discarded error from bitspread/internal/durable.Publish"
	_ = l.Append(nil)                         // want "discarded error from \\(\\*bitspread/internal/durable.Log\\).Append"
	l.Close()                                 // want "discarded error"
}

func checked(fsys durable.FS, l *durable.Log) error {
	if err := durable.Publish(fsys, "result.json", nil); err != nil {
		return err
	}
	return l.Append(nil)
}

func deferred(l *durable.Log) {
	defer l.Close()
}

func suppressed(l *durable.Log) {
	l.Close() //bitlint:errsink error-path cleanup; the caller already holds the open error
}
