// Package ckpt is the ckpterr fixture: checkpoint-store and codec calls with
// discarded and properly handled errors.
package ckpt

import "fmt"

// DiskStore mimics a checkpoint store whose writes can fail.
type DiskStore struct{}

func (DiskStore) Put(op string, part int, rows []int) error {
	if part < 0 {
		return fmt.Errorf("bad part %d", part)
	}
	return nil
}

func (DiskStore) Get(op string, part int) ([]int, error) { return nil, nil }

// PutGroup is the block-typed write: a whole stage's partitions in one call.
func (DiskStore) PutGroup(op string, parts int, group [][]byte) error { return nil }

// blockSink is how a writer holds its store: by the one method it calls.
type blockSink interface {
	PutGroup(op string, parts int, group [][]byte) error
}

// Len has no error result; calling it bare is fine.
func (DiskStore) Len() int { return 0 }

// decodeBlockFile is a codec-path function by name.
func decodeBlockFile(data []byte) ([]int, error) { return nil, nil }

// helper is unrelated to checkpoints; its error may be dropped freely
// (other analyzers may care, ckpterr does not).
func helper() error { return nil }

func bad(s DiskStore) {
	s.Put("op", 0, nil)            // want `error returned by Put is silently discarded`
	_ = s.Put("op", 1, nil)        // want `error returned by Put is discarded with _`
	rows, _ := s.Get("op", 0)      // want `error returned by Get is discarded with _`
	_, _ = decodeBlockFile(nil)    // want `error returned by decodeBlockFile is discarded with _`
	defer s.Put("op", 2, nil)      // want `error returned by Put is unobservable in a go/defer`
	go s.Put("op", 3, nil)         // want `error returned by Put is unobservable in a go/defer`
	_ = rows
}

func badGroup(s DiskStore, sink blockSink) {
	s.PutGroup("op", 4, nil)        // want `error returned by PutGroup is silently discarded`
	_ = sink.PutGroup("op", 4, nil) // want `error returned by PutGroup is discarded with _`
	go sink.PutGroup("op", 4, nil)  // want `error returned by PutGroup is unobservable in a go/defer`
}

func goodGroup(sink blockSink) error {
	err := sink.PutGroup("op", 4, nil)
	return err
}

func good(s DiskStore) error {
	if err := s.Put("op", 0, nil); err != nil {
		return err
	}
	rows, err := s.Get("op", 0)
	if err != nil {
		return err
	}
	if _, err := decodeBlockFile(nil); err != nil {
		return err
	}
	s.Len()
	helper()
	_ = helper()
	_ = rows
	return nil
}

func suppressed(s DiskStore) {
	//lint:ignore ckpterr fixture exercises the suppression path
	s.Put("op", 0, nil)
}
