package experiments

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/dote"
	"repro/internal/nn"
)

// checkpointHeader is the serialized experiment configuration. Everything
// except the trained weights is reconstructed deterministically from it.
type checkpointHeader struct {
	Variant     int
	Topology    string
	K           int
	HistLen     int
	Hidden      []int
	TrainLen    int
	TestLen     int
	TrainEpochs int
	TrainLR     float64
	Seed        uint64
}

// SaveSetup writes the setup's configuration and trained weights so a later
// process can LoadSetup without retraining.
func SaveSetup(w io.Writer, s *Setup) error {
	hdr := checkpointHeader{
		Variant:     int(s.Opts.Variant),
		Topology:    s.Opts.Topology,
		K:           s.Opts.K,
		HistLen:     s.Model.Cfg.HistLen,
		Hidden:      s.Opts.Hidden,
		TrainLen:    s.Opts.TrainLen,
		TestLen:     s.Opts.TestLen,
		TrainEpochs: s.Opts.TrainEpochs,
		TrainLR:     s.Opts.TrainLR,
		Seed:        s.Opts.Seed,
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(hdr); err != nil {
		return fmt.Errorf("experiments: encoding header: %w", err)
	}
	return nn.SaveParams(w, s.Model.Net)
}

// LoadSetup rebuilds a Setup from a checkpoint: topology, path set and
// traffic regenerate deterministically from the recorded seed; training is
// SKIPPED and the stored weights are loaded instead. It is LoadCheckpoint
// plus the train/test traffic the evaluation commands read.
func LoadSetup(r io.Reader) (*Setup, error) {
	s, err := LoadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	s.addTraffic()
	return s, nil
}

// LoadCheckpoint rebuilds the model, path set and attack target from a
// checkpoint, with the stored weights, and generates no traffic: the
// returned Setup has nil TrainEx and TestEx. A search needs only the
// target, so this is the load a daemon job pays.
func LoadCheckpoint(r io.Reader) (*Setup, error) {
	// The checkpoint is two concatenated gob streams (header, then weights),
	// read by two decoders. Each decoder must consume exactly its own
	// messages: hand both the same io.ByteReader, otherwise gob wraps r in a
	// private bufio.Reader and the header decoder buffers ahead into the
	// weight stream, leaving the second decoder mid-message. That is why a
	// bytes.Buffer round-trip works but an *os.File load fails.
	if _, ok := r.(io.ByteReader); !ok {
		r = bufio.NewReader(r)
	}
	var hdr checkpointHeader
	dec := gob.NewDecoder(r)
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("experiments: decoding header: %w", err)
	}
	opts := SetupOptions{
		Variant:     dote.Variant(hdr.Variant),
		Topology:    hdr.Topology,
		K:           hdr.K,
		HistLen:     hdr.HistLen,
		Hidden:      hdr.Hidden,
		TrainLen:    hdr.TrainLen,
		TestLen:     hdr.TestLen,
		TrainEpochs: 0, // sentinel: the weights below replace training
		TrainLR:     hdr.TrainLR,
		Seed:        hdr.Seed,
	}
	s, err := prepareModel(opts)
	if err != nil {
		return nil, err
	}
	if err := nn.LoadParams(r, s.Model.Net); err != nil {
		return nil, fmt.Errorf("experiments: loading weights: %w", err)
	}
	return s, nil
}
