package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"lowvcc/internal/journal"
)

// digestsJSON holds, per size ("full", "quick") and workload, the sha256
// over every cell's encoded core.Result of one round at seed 1. It is
// written by -record-digests, which computes the cells through the
// reference paths only, so a fast path never certifies itself.
//
//go:embed digests.json
var digestsJSON []byte

type digestTable map[string]map[string]string

func recordedDigest(size, workload string) (string, error) {
	var t digestTable
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	d, ok := t[size][workload]
	if !ok {
		return "", fmt.Errorf("digests.json has no %s digest for %s; run with -record-digests", size, workload)
	}
	return d, nil
}

// recordDigests computes every workload's seed-1 digest at the size o
// selects and writes the table to path, keeping the other size's entries.
func recordDigests(ctx context.Context, o *options, path string, stdout io.Writer) error {
	t := digestTable{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &t); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(absOrSelf(o.out), "record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)
	seed1 := *o
	seed1.seed = 1
	sized := map[string]string{}
	for _, def := range workloads {
		b := def.make(&seed1, workDir)
		if err := b.setup(); err != nil {
			return fmt.Errorf("%s: setup: %w", def.name, err)
		}
		res, off, err := b.reference(ctx, true)
		if err != nil {
			return fmt.Errorf("%s: reference: %w", def.name, err)
		}
		if off != 0 {
			return fmt.Errorf("%s: reference skipped %d cells", def.name, off)
		}
		enc, err := encodeResults(res)
		if err != nil {
			return err
		}
		sized[def.name] = journal.Key(bytesToStrings(enc)...)
		fmt.Fprintf(stdout, "%-18s %d cells  %s\n", def.name, len(res), sized[def.name])
	}
	t[o.size()] = sized
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
