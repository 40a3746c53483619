// Fixture: taint into durable.Publish.
package serve

import (
	"fmt"
	"time"

	"bitspread/internal/durable"
)

func persistShard(fsys durable.FS, part int) error {
	stamp := fmt.Sprintf("shard %d at %d", part, time.Now().Unix())
	return durable.Publish(fsys, "fabric/shard", []byte(stamp)) // want "time.Now flows into durable publish"
}

func persistClean(fsys durable.FS, part int) error {
	return durable.Publish(fsys, "fabric/shard", []byte(fmt.Sprint(part)))
}
