package peer

import "testing"

func TestIDString(t *testing.T) {
	tests := []struct {
		name string
		id   ID
		want string
	}{
		{name: "nil renders bottom", id: Nil, want: "⊥"},
		{name: "zero", id: 0, want: "n0"},
		{name: "positive", id: 42, want: "n42"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.id.String(); got != tt.want {
				t.Errorf("ID(%d).String() = %q, want %q", int32(tt.id), got, tt.want)
			}
		})
	}
}

func TestIsNil(t *testing.T) {
	if !Nil.IsNil() {
		t.Error("Nil.IsNil() = false, want true")
	}
	if ID(0).IsNil() {
		t.Error("ID(0).IsNil() = true, want false")
	}
	if ID(7).IsNil() {
		t.Error("ID(7).IsNil() = true, want false")
	}
}

func TestRange(t *testing.T) {
	ids := Range(4)
	if len(ids) != 4 {
		t.Fatalf("len(Range(4)) = %d, want 4", len(ids))
	}
	for i, id := range ids {
		if id != ID(i) {
			t.Errorf("Range(4)[%d] = %v, want %v", i, id, ID(i))
		}
	}
	if got := Range(0); len(got) != 0 {
		t.Errorf("Range(0) = %v, want empty", got)
	}
}

func TestSort(t *testing.T) {
	ids := []ID{5, 1, 3, 1, 0}
	Sort(ids)
	want := []ID{0, 1, 1, 3, 5}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Sort = %v, want %v", ids, want)
		}
	}
}
