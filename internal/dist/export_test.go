package dist

import (
	"context"
	"net"
	"time"

	"repro/internal/mpc"
)

// Test-only windows into a worker process's resident store and its
// session, for the external test package.

// Bytes returns the payload bytes the store keeps.
func (rs *ResidentStore) Bytes() int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.bytes
}

// Entries returns the number of (scatter, slot) slices the store keeps.
func (rs *ResidentStore) Entries() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.entries)
}

// SetBudget replaces the byte budget.
func (rs *ResidentStore) SetBudget(n int64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.budget = n
}

// ForgetSlot drops everything kept for one slot — what a restarted
// worker process has lost.
func (rs *ResidentStore) ForgetSlot(slot int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for k, e := range rs.entries {
		if k.slot == slot {
			rs.bytes -= e.bytes
			delete(rs.entries, k)
		}
	}
}

// ServeConnOn is ServeConn with the process's resident store and the
// handshake window chosen by the test.
func ServeConnOn(ctx context.Context, conn net.Conn, rs *ResidentStore, hello time.Duration) error {
	return serveConn(ctx, conn, rs, hello)
}

// OpenStepped is Open with the schedule of a bare NewCluster: every
// step is sent before its call returns. The stepped ≡ fused nets drive
// one round program through both.
func OpenStepped(opts Options, cfg mpc.Config) (*Cluster, context.Context, error) {
	c, ctx, err := Open(opts, cfg)
	if err == nil {
		c.fused = false
	}
	return c, ctx, err
}

// ResetBehind has the registry send every reset through wrap: the fault
// explorer puts a parked session's reset behind its schedule.
func (r *Registry) ResetBehind(wrap func(Transport) Transport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resetVia = wrap
}
