package sim

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"
)

// TestRegisterFlags: the shared flags bind straight onto Runner fields — no
// arguments leave a zero Runner, every flag lands on its field, and -ckpt
// maps its three spellings onto DisableCheckpoints/CkptDir.
func TestRegisterFlags(t *testing.T) {
	parse := func(args ...string) *Runner {
		t.Helper()
		r := &Runner{}
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		r.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return r
	}

	if r := parse(); !reflect.DeepEqual(r, &Runner{}) {
		t.Fatalf("no arguments: %+v, want a zero Runner", r)
	}

	r := parse("-workers", "3", "-width", "4", "-window", "5000", "-warm", "700",
		"-timeout", "2s", "-journal", "j", "-journal-budget", "1024", "-ckpt-budget", "2048",
		"-retries", "2", "-retry-backoff", "50ms", "-allow-partial", "-progress")
	want := &Runner{
		Workers: 3, Width: 4, WindowInsts: 5000, WarmInsts: 700,
		PointTimeout: 2 * time.Second, JournalDir: "j", JournalBudget: 1024, CkptBudget: 2048,
		Retries: 2, RetryBackoff: 50 * time.Millisecond, AllowPartial: true,
	}
	if r.Progress == nil {
		t.Error("-progress installed no callback")
	}
	r.Progress = nil
	if !reflect.DeepEqual(r, want) {
		t.Errorf("parsed %+v, want %+v", r, want)
	}
	if r := parse("-progress=false"); r.Progress != nil {
		t.Error("-progress=false installed a callback")
	}

	for _, tc := range []struct {
		args    []string
		disable bool
		dir     string
	}{
		{[]string{"-ckpt", "off"}, true, ""},
		{[]string{"-ckpt", "auto"}, false, ""},
		{[]string{"-ckpt", "ckpt-dir"}, false, "ckpt-dir"},
		{[]string{"-ckpt", "off", "-ckpt", "auto"}, false, ""},
		{[]string{"-ckpt", "off", "-ckpt", "dir"}, false, "dir"},
	} {
		r := parse(tc.args...)
		if r.DisableCheckpoints != tc.disable || r.CkptDir != tc.dir {
			t.Errorf("%v: DisableCheckpoints=%v CkptDir=%q, want %v %q",
				tc.args, r.DisableCheckpoints, r.CkptDir, tc.disable, tc.dir)
		}
	}
}
