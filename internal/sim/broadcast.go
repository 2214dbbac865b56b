package sim

import (
	"fmt"

	"nvramfs/internal/cache"
	"nvramfs/internal/prep"
)

// Broadcast drives several steppers over one op stream in lockstep while
// running the operation's cache-independent work — the consistency
// protocol, file-size tracking, and the per-file touched-client index —
// once for all of them. The report sweeps use it to simulate every NVRAM
// size of a row for one decode pass and one protocol pass. Every
// stepper's state after Apply is exactly the state a standalone run of
// its configuration reaches, since both go through the same apply.
type Broadcast struct {
	ls *lockstep
}

// NewBroadcast yokes the given fresh steppers together: stepper 0's
// lockstep (consistency server, size table, touched index) is widened to
// drive them all and the others' are discarded, so none may have applied
// any operations yet. All steppers must agree on WritesOnly and client
// shard, use an NVRAM-staging model, and run without fault injection.
func NewBroadcast(steppers []*Stepper) (*Broadcast, error) {
	if len(steppers) == 0 {
		return nil, fmt.Errorf("sim: broadcast over no steppers")
	}
	for i, d := range steppers {
		switch {
		case d.idx != 0:
			return nil, fmt.Errorf("sim: broadcast stepper %d already at op %d", i, d.idx)
		case d.cfg.Faults != nil:
			return nil, fmt.Errorf("sim: broadcast stepper %d has fault injection", i)
		case d.cfg.Model == cache.ModelVolatile:
			return nil, fmt.Errorf("sim: broadcast stepper %d uses the volatile model", i)
		case d.cfg.WritesOnly != steppers[0].cfg.WritesOnly:
			return nil, fmt.Errorf("sim: broadcast stepper %d disagrees on WritesOnly", i)
		case d.cfg.Shard != steppers[0].cfg.Shard:
			return nil, fmt.Errorf("sim: broadcast stepper %d disagrees on client shard", i)
		}
	}
	if err := steppers[0].cfg.Shard.validate(); err != nil {
		return nil, err
	}
	ls := steppers[0].ls
	for _, d := range steppers[1:] {
		ls.yoke(d)
	}
	return &Broadcast{ls: ls}, nil
}

// Apply applies one operation to every yoked stepper, running the shared
// protocol and bookkeeping once.
func (b *Broadcast) Apply(op prep.Op) error { return b.ls.apply(op) }
