package eval

import "fmt"

// Experiment is one named report of the evaluation section: Run renders it as
// text.
type Experiment struct {
	Name string
	Run  func() (string, error)
}

// Experiments lists every table and figure vennbench regenerates, in the
// order it prints them, at the given scale and seeds per configuration.
func Experiments(scale Scale, seeds int) []Experiment {
	return []Experiment{
		{"fig2a", func() (string, error) {
			r := Figure2a(2000, 1)
			return fmt.Sprintf("Figure 2a: diurnal availability, peak/trough ratio %.2f\n", r.PeakTroughRatio()), nil
		}},
		{"fig8a", func() (string, error) { return Figure8a(5000, 1).Render(), nil }},
		{"fig3", func() (string, error) { r, err := Figure3(); return render(r, err) }},
		{"fig4", func() (string, error) { r, err := Figure4(scale); return render(r, err) }},
		{"fig5", func() (string, error) { r, err := Figure5(scale); return render(r, err) }},
		{"table1", func() (string, error) { r, err := Table1(scale, seeds); return render(r, err) }},
		{"fig9", func() (string, error) { r, err := Figure9(scale, 0); return render(r, err) }},
		{"fig10", func() (string, error) { return Figure10().Render(), nil }},
		{"fig11", func() (string, error) { r, err := Figure11(scale, seeds); return render(r, err) }},
		{"table2", func() (string, error) { r, err := Table2(scale, seeds); return render(r, err) }},
		{"table3", func() (string, error) { r, err := Table3(scale, seeds); return render(r, err) }},
		{"table4", func() (string, error) { r, err := Table4(scale, seeds); return render(r, err) }},
		{"fig12", func() (string, error) { r, err := Figure12(scale, seeds); return render(r, err) }},
		{"fig13", func() (string, error) { r, err := Figure13(scale, seeds); return render(r, err) }},
		{"fig14", func() (string, error) { r, err := Figure14(scale, seeds); return render(r, err) }},
		{"ablation-window", func() (string, error) { r, err := SupplyWindowAblation(scale, seeds); return render(r, err) }},
		{"ablation-heaviness", func() (string, error) { r, err := TaskHeaviness(scale, seeds); return render(r, err) }},
	}
}

func render(r interface{ Render() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}
