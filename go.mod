module fusionq

go 1.24
