// Fixture: the durable package itself is in scope.
package durable

type File interface {
	Sync() error
	Close() error
}

func publish(f File) error {
	f.Sync() // want "discarded error"
	return f.Close()
}
