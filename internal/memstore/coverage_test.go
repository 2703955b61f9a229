package memstore

import (
	"testing"

	"ripple/internal/kvstore"
)

func TestUbiquitousPartViewMutationsMem(t *testing.T) {
	s := newStore(t)
	u, _ := s.CreateTable("u", kvstore.Ubiquitous())
	_ = u.Put("a", 1)
	_, _ = s.CreateTable("d", kvstore.WithParts(2))
	_, err := s.RunAgent("d", 0, func(sv kvstore.ShardView) (any, error) {
		view, err := sv.View("u")
		if err != nil {
			return nil, err
		}
		if view.Table() != "u" {
			t.Errorf("Table = %q", view.Table())
		}
		if err := view.Put("b", 2); err != nil {
			return nil, err
		}
		if err := view.Delete("a"); err != nil {
			return nil, err
		}
		n, err := view.Len()
		if err != nil || n != 1 {
			t.Errorf("Len = %d, %v", n, err)
		}
		keys := []any{}
		if err := view.Enumerate(func(k, _ any) (bool, error) {
			keys = append(keys, k)
			return false, nil
		}); err != nil {
			return nil, err
		}
		if len(keys) != 1 || keys[0] != "b" {
			t.Errorf("keys = %v", keys)
		}
		// Early stop on the ordered path.
		stopped := 0
		if err := view.EnumerateOrdered(func(_, _ any) (bool, error) {
			stopped++
			return true, nil
		}); err != nil {
			return nil, err
		}
		if stopped != 1 {
			t.Errorf("early stop visited %d", stopped)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Writes through the replica view are visible to plain table reads.
	if v, ok, _ := u.Get("b"); !ok || v != 2 {
		t.Errorf("u[b] = %v, %v", v, ok)
	}
	if _, ok, _ := u.Get("a"); ok {
		t.Error("deleted ubiquitous key visible")
	}
}

func TestUbiquitousDeleteAndSizeMem(t *testing.T) {
	s := newStore(t)
	u, _ := s.CreateTable("u", kvstore.Ubiquitous())
	_ = u.Put("x", 1)
	_ = u.Put("y", 2)
	if n, _ := u.Size(); n != 2 {
		t.Errorf("Size = %d", n)
	}
	_ = u.Delete("x")
	if n, _ := u.Size(); n != 1 {
		t.Errorf("Size after delete = %d", n)
	}
	if err := s.DropTable("u"); err != nil {
		t.Fatal(err)
	}
}
