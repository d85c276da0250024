package core

import (
	"fmt"
	"slices"
	"testing"

	"sprite/internal/rpc"
	"sprite/internal/sim"
)

// oldPID is the fmt rendering PID.String replaced: HostID's "host%d", a
// dot, the sequence number.
func oldPID(p PID) string { return fmt.Sprintf("host%d.%d", int(p.Home), p.Seq) }

// TestNamesMatchFmt: the per-process and per-migration names are built with
// strconv and concatenation, and every one must stay byte-identical to the
// fmt rendering it replaced — at NoHost, host 1, a five-digit host and a
// seven-digit sequence number.
func TestNamesMatchFmt(t *testing.T) {
	for _, pid := range []PID{{rpc.NoHost, 0}, {1, 1}, {1, 42}, {12345, 3}, {2, 1234567}, {12345, 1234567}} {
		old := oldPID(pid)
		for _, c := range []struct{ got, want string }{
			{pid.Home.String(), fmt.Sprintf("host%d", int(pid.Home))},
			{pid.String(), old},
			{"proc-" + pid.String() + "-cc", fmt.Sprintf("proc-%s-%s", old, "cc")},
			{"mig-streams-" + pid.String(), fmt.Sprintf("mig-streams-%s", old)},
			{pid.String() + "-cc", fmt.Sprintf("%s-%s", old, "cc")},
		} {
			if c.got != c.want {
				t.Errorf("pid %#v: built %q, fmt rendered %q", pid, c.got, c.want)
			}
		}
	}
}

// TestProcessNamesMatchFmt checks the names a running process carries where
// they are built: its activity's name and its swap files' paths.
func TestProcessNamesMatchFmt(t *testing.T) {
	c := newCluster(t, 1)
	var pid PID
	var names []string
	c.Boot("boot", func(env *sim.Env) error {
		p, err := c.Workstation(0).StartProcess(env, "cc", func(ctx *Ctx) error {
			names = append(names, ctx.env.Name(), ctx.proc.space.Heap.Backing.Path, ctx.proc.space.Stack.Backing.Path)
			return nil
		}, smallProc)
		if err != nil {
			return err
		}
		pid = p.PID()
		_, err = p.Exited().Wait(env)
		return err
	})
	runCluster(t, c)
	old := oldPID(pid)
	want := []string{
		fmt.Sprintf("proc-%s-%s", old, "cc"),
		fmt.Sprintf("/swap/%s-%s.%s", old, "cc", "heap"),
		fmt.Sprintf("/swap/%s-%s.%s", old, "cc", "stack"),
	}
	if !slices.Equal(names, want) {
		t.Errorf("process names %q, want %q", names, want)
	}
}
