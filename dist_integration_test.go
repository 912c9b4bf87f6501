package repro

// Multi-process distributed integration: spawn real mpcworker
// processes (the built binary, not in-process listeners) and hold the
// TCP execution path to ground truth across families and engines.
// The test is gated on MPCWORKER_BIN — CI builds the binary, exports
// the path, and runs this with a hard timeout; locally:
//
//	go build -o /tmp/mpcworker ./cmd/mpcworker
//	MPCWORKER_BIN=/tmp/mpcworker go test -run TestDistributedWorkerProcesses -v .

import (
	"bufio"
	"context"
	"math/big"
	"math/rand/v2"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/relation"
)

// workerProcs is a set of spawned mpcworker processes whose members
// can be SIGKILLed individually.
type workerProcs struct {
	addrs []string
	cmds  []*exec.Cmd
}

// sigkill delivers SIGKILL to worker i and reaps it, so its sockets
// are closed by the kernel before sigkill returns.
func (w *workerProcs) sigkill(t *testing.T, i int) {
	t.Helper()
	if err := w.cmds[i].Process.Kill(); err != nil {
		t.Fatalf("SIGKILL worker %d: %v", i, err)
	}
	w.cmds[i].Wait()
}

// spawnWorkerProcs starts n mpcworker processes on OS-assigned ports,
// parsing each address from the process's startup line.
func spawnWorkerProcs(t *testing.T, ctx context.Context, bin string, n int) *workerProcs {
	t.Helper()
	w := &workerProcs{addrs: make([]string, n), cmds: make([]*exec.Cmd, n)}
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(ctx, bin, "-listen", "127.0.0.1:0")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		line, err := bufio.NewReader(out).ReadString('\n')
		if err != nil {
			t.Fatalf("worker %d produced no startup line: %v", i, err)
		}
		// "mpcworker listening on 127.0.0.1:NNNN"
		fields := strings.Fields(strings.TrimSpace(line))
		addr := fields[len(fields)-1]
		if !strings.Contains(addr, ":") {
			t.Fatalf("worker %d startup line %q has no address", i, line)
		}
		w.addrs[i] = addr
		w.cmds[i] = cmd
	}
	return w
}

// spawnWorkers starts n mpcworker processes and returns their
// addresses.
func spawnWorkers(t *testing.T, ctx context.Context, bin string, n int) []string {
	t.Helper()
	return spawnWorkerProcs(t, ctx, bin, n).addrs
}

// TestDistributedWorkerProcesses is the CI integration job's body.
func TestDistributedWorkerProcesses(t *testing.T) {
	bin := os.Getenv("MPCWORKER_BIN")
	if bin == "" {
		t.Skip("MPCWORKER_BIN not set; run the in-process suite in internal/dist instead")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const p = 4
	addrs := spawnWorkers(t, ctx, bin, p)

	cases := []struct {
		name string
		q    *query.Query
		eps  *big.Rat
	}{
		{"triangle", query.Cycle(3), nil},
		{"star", query.Star(3), nil},
		{"chain-multiround", query.Chain(4), big.NewRat(0, 1)},
		{"join", query.MustParse("q(x,y,z) = R(x,y), S(y,z)"), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(31, uint64(len(c.name))))
			db := relation.MatchingDatabase(rng, c.q, 400)
			truth, err := core.GroundTruth(c.q, db)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := plan.Build(c.q, relation.CollectStats(db), plan.Options{P: p, Epsilon: c.eps})
			if err != nil {
				t.Fatal(err)
			}
			local, err := pl.Execute(db, plan.ExecOptions{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := dist.DialTCP(ctx, addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			remote, err := pl.Execute(db, plan.ExecOptions{Seed: 5, Transport: tr, Context: ctx})
			if err != nil {
				t.Fatal(err)
			}
			if len(remote.Answers) != len(truth) {
				t.Fatalf("distributed: %d answers, ground truth %d", len(remote.Answers), len(truth))
			}
			for i := range truth {
				if !remote.Answers[i].Equal(truth[i]) {
					t.Fatalf("answer %d differs from ground truth: %v vs %v", i, remote.Answers[i], truth[i])
				}
			}
			if local.Stats.TotalBits() != remote.Stats.TotalBits() ||
				local.Stats.MaxLoadBits() != remote.Stats.MaxLoadBits() {
				t.Fatalf("stats differ: local (%d, %d) vs distributed (%d, %d)",
					local.Stats.TotalBits(), local.Stats.MaxLoadBits(),
					remote.Stats.TotalBits(), remote.Stats.MaxLoadBits())
			}
		})
	}
}

// killAtBarrier wraps the TCP transport and SIGKILLs a real worker
// process exactly once, ahead of the script that carries the barrier
// closing the given round — a deterministic mid-query crash with no
// timers: the round's whole fused stream to that worker dies. The
// embedded TCP keeps the wrapper a full Replaceable, so recovery drives
// replacement through it.
type killAtBarrier struct {
	*dist.TCP
	round int
	kill  func()
	fired bool
}

// Run fires the kill before forwarding, so the script itself observes
// the dead worker.
func (k *killAtBarrier) Run(ctx context.Context, ops []dist.Op) (dist.Reply, error) {
	for _, op := range ops {
		if op.Kind == dist.OpBarrier && op.Round == k.round && !k.fired {
			k.fired = true
			k.kill()
		}
	}
	return k.TCP.Run(ctx, ops)
}

// TestDistributedWorkerKillRecovery is the self-healing e2e: four real
// mpcworker processes plus one spare process run a multiround Γ^r_ε
// chain query; one member is SIGKILLed at the barrier of round 2 (so
// round 1 is complete and journaled); the run must promote the
// spare, replay the lost shard, and still produce ground-truth
// answers with statistics identical to the in-process run.
func TestDistributedWorkerKillRecovery(t *testing.T) {
	bin := os.Getenv("MPCWORKER_BIN")
	if bin == "" {
		t.Skip("MPCWORKER_BIN not set; run the in-process suite in internal/dist instead")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const p = 4
	procs := spawnWorkerProcs(t, ctx, bin, p+1)
	members, spare := procs.addrs[:p], procs.addrs[p]

	q := query.Chain(4)
	db := relation.MatchingDatabase(rand.New(rand.NewPCG(41, 7)), q, 400)
	truth, err := core.GroundTruth(q, db)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Build(q, relation.CollectStats(db), plan.Options{P: p, Epsilon: big.NewRat(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if pl, err = pl.WithEngine(plan.MultiRound); err != nil {
		t.Fatal(err)
	}
	local, err := pl.Execute(db, plan.ExecOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if local.Stats.NumRounds() < 2 {
		t.Fatalf("chain plan ran %d rounds; the kill-point needs a multiround execution", local.Stats.NumRounds())
	}

	// The session is lent by a registry that owns the spare.
	tr, _, err := dist.NewRegistry(members, []string{spare}).Session(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	killer := &killAtBarrier{TCP: tr, round: 2, kill: func() { procs.sigkill(t, 2) }}
	remote, err := pl.Execute(db, plan.ExecOptions{
		Seed:      5,
		Transport: killer,
		Context:   ctx,
		Recovery:  dist.RecoveryOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !killer.fired {
		t.Fatal("kill-point never reached")
	}
	if remote.Replacements != 1 {
		t.Fatalf("Replacements = %d after one SIGKILL, want 1", remote.Replacements)
	}
	if len(remote.Answers) != len(truth) {
		t.Fatalf("recovered run: %d answers, ground truth %d", len(remote.Answers), len(truth))
	}
	for i := range truth {
		if !remote.Answers[i].Equal(truth[i]) {
			t.Fatalf("answer %d differs from ground truth: %v vs %v", i, remote.Answers[i], truth[i])
		}
	}
	if local.Stats.TotalBits() != remote.Stats.TotalBits() ||
		local.Stats.MaxLoadBits() != remote.Stats.MaxLoadBits() {
		t.Fatalf("stats differ after recovery: local (%d, %d) vs distributed (%d, %d)",
			local.Stats.TotalBits(), local.Stats.MaxLoadBits(),
			remote.Stats.TotalBits(), remote.Stats.MaxLoadBits())
	}
}
