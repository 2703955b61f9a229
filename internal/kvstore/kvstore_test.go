package kvstore

import (
	"errors"
	"testing"
)

func TestApplyOptionsDefaults(t *testing.T) {
	cfg := ApplyOptions(8, nil)
	if cfg.Parts != 8 {
		t.Errorf("Parts = %d, want store default 8", cfg.Parts)
	}
	if cfg.Ubiquitous || cfg.Ordered || cfg.ConsistentWith != "" {
		t.Errorf("unexpected non-zero config: %+v", cfg)
	}
}

func TestApplyOptionsExplicit(t *testing.T) {
	cfg := ApplyOptions(8, []TableOption{
		WithParts(3), Ordered(), ConsistentWith("base"),
	})
	if cfg.Parts != 3 || !cfg.Ordered || cfg.ConsistentWith != "base" {
		t.Errorf("cfg = %+v", cfg)
	}
}

func TestApplyOptionsUbiquitousForcesOnePart(t *testing.T) {
	cfg := ApplyOptions(8, []TableOption{WithParts(5), Ubiquitous()})
	if !cfg.Ubiquitous || cfg.Parts != 1 {
		t.Errorf("cfg = %+v", cfg)
	}
}

func TestApplyOptionsNonPositivePartsUseDefault(t *testing.T) {
	cfg := ApplyOptions(6, []TableOption{WithParts(0)})
	if cfg.Parts != 6 {
		t.Errorf("Parts = %d", cfg.Parts)
	}
	cfg = ApplyOptions(6, []TableOption{WithParts(-2)})
	if cfg.Parts != 6 {
		t.Errorf("Parts = %d", cfg.Parts)
	}
}

func TestCheckPart(t *testing.T) {
	if err := CheckPart(0, 3); err != nil {
		t.Errorf("CheckPart(0,3) = %v", err)
	}
	if err := CheckPart(2, 3); err != nil {
		t.Errorf("CheckPart(2,3) = %v", err)
	}
	if err := CheckPart(3, 3); !errors.Is(err, ErrBadPart) {
		t.Errorf("CheckPart(3,3) = %v", err)
	}
	if err := CheckPart(-1, 3); !errors.Is(err, ErrBadPart) {
		t.Errorf("CheckPart(-1,3) = %v", err)
	}
}

func TestConsumerFuncsNilDefaults(t *testing.T) {
	var pc PairConsumerFuncs
	if err := pc.SetupPart(0); err != nil {
		t.Errorf("SetupPart = %v", err)
	}
	stop, err := pc.ConsumePair(1, 2)
	if stop || err != nil {
		t.Errorf("ConsumePair = %v, %v", stop, err)
	}
	if v, err := pc.FinishPart(0); v != nil || err != nil {
		t.Errorf("FinishPart = %v, %v", v, err)
	}
	if v, err := pc.Combine(1, 2); v != nil || err != nil {
		t.Errorf("Combine = %v, %v", v, err)
	}

	var partc PartConsumerFuncs
	if v, err := partc.ProcessPart(nil); v != nil || err != nil {
		t.Errorf("ProcessPart = %v, %v", v, err)
	}
	if v, err := partc.Combine(1, 2); v != nil || err != nil {
		t.Errorf("Combine = %v, %v", v, err)
	}
}

func TestErrorsAreDistinct(t *testing.T) {
	errs := []error{
		ErrTableExists, ErrNoTable, ErrBadPart, ErrClosed,
		ErrNotCoPlaced, ErrShardFailed, ErrTxConflict,
	}
	for i, a := range errs {
		for j, b := range errs {
			if i != j && errors.Is(a, b) {
				t.Errorf("error %d and %d alias", i, j)
			}
		}
	}
}
